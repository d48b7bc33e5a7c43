"""CDFG-to-CDFG transforms.

These run before scheduling:

* :func:`eliminate_dead_nodes` — drop nodes that reach no output.
* :func:`fold_constants` — evaluate ops whose operands are all constants.
* :func:`rebuild` — produce a compact, freshly-numbered copy (used by the
  other transforms and by the pipelining expander).
"""

from __future__ import annotations

from repro.ir.graph import CDFG, CDFGError
from repro.ir.ops import Op, OpSemantics


def rebuild(graph: CDFG, keep: set[int] | None = None, name: str | None = None) -> CDFG:
    """Copy ``graph`` keeping only ``keep`` (default: all), renumbering ids
    densely in topological order.  Control edges between kept nodes survive.
    """
    if keep is None:
        keep = set(graph.node_ids)
    out = CDFG(name=name or graph.name)
    mapping: dict[int, int] = {}
    for nid in graph.topological_order():
        if nid not in keep:
            continue
        node = graph.node(nid)
        try:
            operands = [mapping[p] for p in node.operands]
        except KeyError as exc:
            raise ValueError(
                f"node {nid} kept but operand {exc.args[0]} dropped"
            ) from None
        mapping[nid] = out.add_node(node.op, operands, name=node.name,
                                    value=node.value, latency=node.latency)
    for src, dst in graph.control_edges():
        if src in mapping and dst in mapping:
            out.add_control_edge(mapping[src], mapping[dst])
    return out


def eliminate_dead_nodes(graph: CDFG) -> CDFG:
    """Remove every node that does not reach an OUTPUT."""
    live: set[int] = set()
    for out in graph.outputs():
        live |= graph.transitive_fanin(out.nid, include_self=True)
    return rebuild(graph, keep=live)


def fold_constants(graph: CDFG, width: int = 8) -> CDFG:
    """Evaluate operations whose operands are all CONST nodes.

    MUX nodes with a constant select are replaced by the selected operand.
    Returns a freshly-numbered graph; dead constants are swept afterwards.
    """
    semantics = OpSemantics(width=width)
    out = CDFG(name=graph.name)
    mapping: dict[int, int] = {}
    const_of: dict[int, int] = {}  # new id -> constant value
    const_by_value: dict[int, int] = {}  # constant value -> new id

    def make_const(value: int) -> int:
        if value in const_by_value:
            return const_by_value[value]
        nid = out.add_node(Op.CONST, value=value)
        const_by_value[value] = nid
        const_of[nid] = value
        return nid

    for nid in graph.topological_order():
        node = graph.node(nid)
        operands = [mapping[p] for p in node.operands]
        if node.op is Op.CONST:
            new = make_const(node.value)
        elif node.op is Op.MUX and operands[0] in const_of:
            new = operands[2] if const_of[operands[0]] else operands[1]
        elif (node.is_schedulable or node.op in (Op.SHL, Op.SHR, Op.PASS)) \
                and operands and all(p in const_of for p in operands):
            value = semantics.evaluate(node.op, [const_of[p] for p in operands])
            new = make_const(value)
        else:
            new = out.add_node(node.op, operands, name=node.name,
                               value=node.value, latency=node.latency)
        mapping[nid] = new
    for src, dst in graph.control_edges():
        ns, nd = mapping[src], mapping[dst]
        if ns != nd and ns not in const_of:
            try:
                out.add_control_edge(ns, nd)
            except CDFGError:
                pass  # merged nodes would close a cycle: drop the edge
    return eliminate_dead_nodes(out)
