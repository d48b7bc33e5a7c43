"""The Control Data Flow Graph (CDFG).

Nodes are operations; data edges are implied by each node's ordered operand
list.  In addition the graph carries *control edges* — pure precedence
constraints with no data flow — which is exactly what the paper's step 10
inserts between a MUX's select driver and the top nodes of its data cones.

Structure queries are memoized.  Every mutation (``add_node``,
``add_control_edge``, ``remove_control_edge``, ``clear_control_edges``)
bumps one version counter and topological orders are kept per version.
The ``preds``/``succs`` tuples are dropped on every mutation, except that
one control edge ``src -> dst`` drops only ``succs(src)`` and
``preds(dst)``, the two it changes; the PM pass adds and removes control
edges one at a time, and rebuilding every tuple after each of those cost
it measurably.  ``data_succs`` tuples are dropped only when a node is
added.  The memo holds structure only: latencies are read from the live
nodes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator

from repro.ir.node import Node
from repro.ir.ops import Op


class CDFGError(Exception):
    """Raised for structurally invalid CDFG operations."""


class CDFG:
    """A directed acyclic graph of operations.

    Edge kinds:
        * data edges — ``u`` is an operand of ``v`` (implied by operands);
        * control edges — scheduling precedence only (added by the PM pass).

    Both kinds constrain scheduling; only data edges carry values.
    """

    def __init__(self, name: str = "cdfg") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._succs: dict[int, list[int]] = {}
        self._control_succs: dict[int, set[int]] = {}
        self._control_preds: dict[int, set[int]] = {}
        self._next_id = 0
        # The memoized index (see the module docstring).  Operands never
        # change, so data predecessors are stored once at add_node.
        self._version = 0
        self._data_preds: dict[int, tuple[int, ...]] = {}
        self._data_succs_memo: dict[int, tuple[int, ...]] = {}
        self._preds_memo: dict[int, tuple[int, ...]] = {}
        self._succs_memo: dict[int, tuple[int, ...]] = {}
        self._orders: dict[bool, tuple[int, tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        op: Op,
        operands: Iterable[int] = (),
        name: str = "",
        value: int | None = None,
        latency: int = -1,
    ) -> int:
        """Create a node and return its id.  Operands must already exist."""
        operands = list(operands)
        for producer in operands:
            if producer not in self._nodes:
                raise CDFGError(f"operand {producer} does not exist")
        nid = self._next_id
        self._next_id += 1
        node = Node(nid=nid, op=op, operands=operands, name=name, value=value,
                    latency=latency)
        self._nodes[nid] = node
        self._succs[nid] = []
        self._data_preds[nid] = tuple(dict.fromkeys(operands))
        for producer in operands:
            self._succs[producer].append(nid)
        self._data_succs_memo.clear()
        self._changed()
        return nid

    def add_control_edge(self, src: int, dst: int) -> None:
        """Add a pure precedence edge ``src`` -> ``dst`` (paper step 10).

        The cycle check is a depth-first search from ``dst`` for ``src``
        over data and control edges, so it costs the part of the graph
        downstream of ``dst``, not a full sort.  A refused edge raises
        :class:`CDFGError` and leaves the graph unchanged.
        """
        if src not in self._nodes or dst not in self._nodes:
            raise CDFGError(f"control edge {src}->{dst}: unknown node")
        if src == dst:
            raise CDFGError(f"control self-edge on node {src}")
        if dst in self._control_succs.get(src, ()):
            return
        if self._reaches(dst, src):
            raise CDFGError(f"control edge {src}->{dst} creates a cycle")
        self._control_succs.setdefault(src, set()).add(dst)
        self._control_preds.setdefault(dst, set()).add(src)
        self._changed(src, dst)

    def remove_control_edge(self, src: int, dst: int) -> None:
        self._control_succs.get(src, set()).discard(dst)
        self._control_preds.get(dst, set()).discard(src)
        self._changed(src, dst)

    def clear_control_edges(self) -> None:
        self._control_succs.clear()
        self._control_preds.clear()
        self._changed()

    def _changed(self, src: int | None = None, dst: int | None = None
                 ) -> None:
        """Record a mutation: bump the version and drop the memoized
        ``preds``/``succs`` tuples it can change — for one control edge
        ``src -> dst`` just ``succs(src)`` and ``preds(dst)``, else all."""
        self._version += 1
        if src is None:
            self._preds_memo.clear()
            self._succs_memo.clear()
        else:
            self._succs_memo.pop(src, None)
            self._preds_memo.pop(dst, None)

    def _reaches(self, start: int, target: int) -> bool:
        """True if ``target`` is reachable from ``start`` (data+control)."""
        seen = {start}
        stack = [start]
        data_succs, control_succs = self._succs, self._control_succs
        while stack:
            nid = stack.pop()
            for succ in (*data_succs[nid], *control_succs.get(nid, ())):
                if succ == target:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def node(self, nid: int) -> Node:
        try:
            return self._nodes[nid]
        except KeyError:
            raise CDFGError(f"no node with id {nid}") from None

    def __contains__(self, nid: int) -> bool:
        return nid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    @property
    def node_ids(self) -> list[int]:
        return list(self._nodes)

    def nodes(self, predicate: Callable[[Node], bool] | None = None) -> list[Node]:
        """All nodes, optionally filtered."""
        if predicate is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if predicate(n)]

    def inputs(self) -> list[Node]:
        return self.nodes(lambda n: n.op is Op.INPUT)

    def outputs(self) -> list[Node]:
        return self.nodes(lambda n: n.op is Op.OUTPUT)

    def constants(self) -> list[Node]:
        return self.nodes(lambda n: n.op is Op.CONST)

    def muxes(self) -> list[Node]:
        return self.nodes(lambda n: n.op is Op.MUX)

    def operations(self) -> list[Node]:
        """Schedulable operation nodes (what Tables I/II count)."""
        return self.nodes(lambda n: n.is_schedulable)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def data_preds(self, nid: int) -> tuple[int, ...]:
        """Operand producers (with duplicates collapsed, order preserved)."""
        try:
            return self._data_preds[nid]
        except KeyError:
            raise CDFGError(f"no node with id {nid}") from None

    def data_succs(self, nid: int) -> tuple[int, ...]:
        """Consumers of this node's value (duplicates collapsed)."""
        memo = self._data_succs_memo.get(nid)
        if memo is None:
            memo = tuple(dict.fromkeys(self._succs[nid]))
            self._data_succs_memo[nid] = memo
        return memo

    def control_preds(self, nid: int) -> set[int]:
        return set(self._control_preds.get(nid, ()))

    def control_succs(self, nid: int) -> set[int]:
        return set(self._control_succs.get(nid, ()))

    def control_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, vs in self._control_succs.items() for v in sorted(vs)]

    def preds(self, nid: int) -> tuple[int, ...]:
        """All predecessors: data + control (scheduling constraints);
        data predecessors first, then the other control ones in id order."""
        memo = self._preds_memo.get(nid)
        if memo is None:
            memo = self._merged(self.data_preds(nid),
                                self._control_preds.get(nid))
            self._preds_memo[nid] = memo
        return memo

    def succs(self, nid: int) -> tuple[int, ...]:
        """All successors: data + control, ordered like :meth:`preds`."""
        memo = self._succs_memo.get(nid)
        if memo is None:
            memo = self._merged(self.data_succs(nid),
                                self._control_succs.get(nid))
            self._succs_memo[nid] = memo
        return memo

    @staticmethod
    def _merged(data: tuple[int, ...],
                control: set[int] | None) -> tuple[int, ...]:
        if not control:
            return data
        return data + tuple(n for n in sorted(control) if n not in data)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def topological_order(self, include_control: bool = True
                          ) -> tuple[int, ...]:
        """Kahn topological sort (ties in id order, then FIFO), memoized
        until the next mutation; raises CDFGError on cycles."""
        memo = self._orders.get(include_control)
        if memo is not None and memo[0] == self._version:
            return memo[1]
        succs_of = self.succs if include_control else self.data_succs
        preds_of = self.preds if include_control else self.data_preds
        indegree = {nid: len(preds_of(nid)) for nid in self._nodes}
        ready = deque(sorted(n for n, d in indegree.items() if d == 0))
        order: list[int] = []
        while ready:
            nid = ready.popleft()
            order.append(nid)
            for succ in succs_of(nid):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise CDFGError("graph contains a cycle")
        result = tuple(order)
        self._orders[include_control] = (self._version, result)
        return result

    def transitive_fanin(self, nid: int, include_self: bool = False) -> set[int]:
        """All nodes from which ``nid`` is reachable via data edges."""
        return self._reach(nid, self.data_preds, include_self)

    def transitive_fanout(self, nid: int, include_self: bool = False) -> set[int]:
        """All nodes reachable from ``nid`` via data edges."""
        return self._reach(nid, self.data_succs, include_self)

    def _reach(self, start: int, step, include_self: bool) -> set[int]:
        self.node(start)  # validate
        seen: set[int] = set()
        frontier = deque(step(start))
        while frontier:
            nid = frontier.popleft()
            if nid in seen:
                continue
            seen.add(nid)
            frontier.extend(step(nid))
        if include_self:
            seen.add(start)
        return seen

    def longest_path_to_output(self) -> dict[int, int]:
        """Weighted longest path (sum of latencies) from each node to any
        graph sink, over data+control edges.  Used to order MUX processing
        (paper: closest to the outputs first = smallest distance)."""
        dist: dict[int, int] = {}
        for nid in reversed(self.topological_order()):
            succs = self.succs(nid)
            node = self._nodes[nid]
            if not succs:
                dist[nid] = node.latency
            else:
                dist[nid] = node.latency + max(dist[s] for s in succs)
        return dist

    # ------------------------------------------------------------------
    # Utility
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "CDFG":
        """Deep copy (nodes, data and control edges), preserving node ids."""
        clone = CDFG(name=name or self.name)
        clone._next_id = self._next_id
        for nid, node in self._nodes.items():
            clone._nodes[nid] = Node(
                nid=node.nid, op=node.op, operands=list(node.operands),
                name=node.name, value=node.value, latency=node.latency,
            )
            clone._succs[nid] = list(self._succs[nid])
        for src, dsts in self._control_succs.items():
            clone._control_succs[src] = set(dsts)
        for dst, srcs in self._control_preds.items():
            clone._control_preds[dst] = set(srcs)
        # The memo holds immutable tuples, so the clone starts warm.
        clone._data_preds = dict(self._data_preds)
        clone._data_succs_memo = dict(self._data_succs_memo)
        clone._preds_memo = dict(self._preds_memo)
        clone._succs_memo = dict(self._succs_memo)
        clone._orders = {key: (0, order)
                         for key, (version, order) in self._orders.items()
                         if version == self._version}
        return clone

    def op_counts(self) -> dict[str, int]:
        """Schedulable operation counts by resource class (Table I columns)."""
        counts: dict[str, int] = {}
        for node in self.operations():
            key = node.resource.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CDFG({self.name!r}, {len(self._nodes)} nodes, "
                f"{len(self.control_edges())} control edges)")
