"""CDFG structure: nodes, edges, traversal, control edges."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.graph import CDFG, CDFGError
from repro.ir.ops import Op
from tests.strategies import generated_circuits


def make_diamond():
    g = CDFG("d")
    a = g.add_node(Op.INPUT, name="a")
    b = g.add_node(Op.INPUT, name="b")
    c = g.add_node(Op.GT, [a, b], name="c")
    s0 = g.add_node(Op.SUB, [b, a], name="s0")
    s1 = g.add_node(Op.SUB, [a, b], name="s1")
    m = g.add_node(Op.MUX, [c, s0, s1], name="m")
    o = g.add_node(Op.OUTPUT, [m], name="out")
    return g, (a, b, c, s0, s1, m, o)


class TestConstruction:
    def test_add_node_assigns_sequential_ids(self):
        g = CDFG()
        assert g.add_node(Op.INPUT, name="x") == 0
        assert g.add_node(Op.INPUT, name="y") == 1

    def test_unknown_operand_rejected(self):
        g = CDFG()
        with pytest.raises(CDFGError, match="does not exist"):
            g.add_node(Op.OUTPUT, [99])

    def test_const_requires_value(self):
        g = CDFG()
        with pytest.raises(ValueError, match="requires a value"):
            g.add_node(Op.CONST)

    def test_wrong_arity_rejected(self):
        g = CDFG()
        a = g.add_node(Op.INPUT, name="a")
        with pytest.raises(ValueError, match="expects 3 operands"):
            g.add_node(Op.MUX, [a, a])

    def test_len_contains_iter(self):
        g, ids = make_diamond()
        assert len(g) == 7
        assert ids[0] in g
        assert 99 not in g
        assert {n.nid for n in g} == set(ids)


class TestEdges:
    def test_data_preds_succs(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        assert g.data_preds(m) == (c, s0, s1)
        assert set(g.data_succs(a)) == {c, s0, s1}
        assert g.data_succs(m) == (o,)

    def test_duplicate_operand_collapsed(self):
        g = CDFG()
        a = g.add_node(Op.INPUT, name="a")
        d = g.add_node(Op.ADD, [a, a], name="double")
        assert g.data_preds(d) == (a,)
        assert g.data_succs(a) == (d,)

    def test_control_edges(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s0)
        assert (c, s0) in g.control_edges()
        assert s0 in g.control_succs(c)
        assert c in g.control_preds(s0)
        assert c in g.preds(s0)
        assert s0 in g.succs(c)

    def test_control_edge_removal(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s0)
        g.remove_control_edge(c, s0)
        assert g.control_edges() == []

    def test_control_self_edge_rejected(self):
        g, (a, b, c, *_rest) = make_diamond()
        with pytest.raises(CDFGError, match="self-edge"):
            g.add_control_edge(c, c)

    def test_control_cycle_rejected_and_rolled_back(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        with pytest.raises(CDFGError, match="cycle"):
            g.add_control_edge(m, c)  # m depends on c already
        assert g.control_edges() == []

    def test_unknown_node_in_control_edge(self):
        g, _ = make_diamond()
        with pytest.raises(CDFGError, match="unknown node"):
            g.add_control_edge(0, 99)

    def test_clear_control_edges(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s0)
        g.clear_control_edges()
        assert g.control_edges() == []


class TestTraversal:
    def test_topological_order_respects_data_edges(self):
        g, ids = make_diamond()
        order = g.topological_order()
        pos = {nid: i for i, nid in enumerate(order)}
        for node in g:
            for p in g.data_preds(node.nid):
                assert pos[p] < pos[node.nid]

    def test_topological_order_respects_control_edges(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s1)
        order = g.topological_order()
        assert order.index(c) < order.index(s1)

    def test_transitive_fanin(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        assert g.transitive_fanin(m) == {a, b, c, s0, s1}
        assert g.transitive_fanin(c) == {a, b}
        assert g.transitive_fanin(a) == set()
        assert a in g.transitive_fanin(a, include_self=True)

    def test_transitive_fanout(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        assert g.transitive_fanout(c) == {m, o}
        assert g.transitive_fanout(a) == {c, s0, s1, m, o}

    def test_longest_path_to_output(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        dist = g.longest_path_to_output()
        assert dist[o] == 0
        assert dist[m] == 1
        assert dist[s0] == 2
        assert dist[c] == 2
        assert dist[a] == 2  # zero-latency input + sub + mux


class TestQueries:
    def test_node_kind_helpers(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        assert [n.nid for n in g.inputs()] == [a, b]
        assert [n.nid for n in g.outputs()] == [o]
        assert [n.nid for n in g.muxes()] == [m]
        assert {n.nid for n in g.operations()} == {c, s0, s1, m}

    def test_op_counts(self):
        g, _ = make_diamond()
        assert g.op_counts() == {"COMP": 1, "-": 2, "MUX": 1}

    def test_node_lookup_error(self):
        g, _ = make_diamond()
        with pytest.raises(CDFGError, match="no node"):
            g.node(1234)


class TestCopy:
    def test_copy_is_deep(self):
        g, (a, b, c, s0, s1, m, o) = make_diamond()
        g.add_control_edge(c, s0)
        clone = g.copy()
        clone.add_control_edge(c, s1)
        assert (c, s1) not in g.control_edges()
        assert (c, s0) in clone.control_edges()
        assert len(clone) == len(g)

    def test_copy_preserves_node_fields(self):
        g, _ = make_diamond()
        clone = g.copy(name="other")
        assert clone.name == "other"
        for node in g:
            other = clone.node(node.nid)
            assert other.op is node.op
            assert other.operands == node.operands
            assert other.name == node.name

    def test_copy_can_extend_without_id_clash(self):
        g, _ = make_diamond()
        clone = g.copy()
        new = clone.add_node(Op.INPUT, name="z")
        assert new not in g


# -- the memoized index against a reference written from scratch ------------

def reference_structure(graph, control):
    """(preds, succs) of every node from the operand lists and a control
    edge set alone: data neighbours first (operands in order, consumers
    in id order, duplicates collapsed), then the other control
    neighbours in id order."""
    nodes = sorted(graph.node_ids)
    data_preds = {n: list(dict.fromkeys(graph.node(n).operands))
                  for n in nodes}
    data_succs = {n: [] for n in nodes}
    for n in nodes:
        for p in data_preds[n]:
            data_succs[p].append(n)
    control_preds = {n: set() for n in nodes}
    control_succs = {n: set() for n in nodes}
    for u, v in control:
        control_preds[v].add(u)
        control_succs[u].add(v)
    preds = {n: data_preds[n] + sorted(control_preds[n] - set(data_preds[n]))
             for n in nodes}
    succs = {n: data_succs[n] + sorted(control_succs[n] - set(data_succs[n]))
             for n in nodes}
    return preds, succs


def reference_kahn(nodes, preds, succs):
    """Kahn's sort, ties broken as the graph documents; None on a cycle."""
    indegree = {n: len(preds[n]) for n in nodes}
    ready = deque(sorted(n for n in nodes if indegree[n] == 0))
    order = []
    while ready:
        n = ready.popleft()
        order.append(n)
        for s in succs[n]:
            indegree[s] -= 1
            if indegree[s] == 0:
                ready.append(s)
    return tuple(order) if len(order) == len(nodes) else None


def check_index(graph, control):
    preds, succs = reference_structure(graph, control)
    nodes = sorted(graph.node_ids)
    for n in nodes:
        assert graph.preds(n) == tuple(preds[n])
        assert graph.succs(n) == tuple(succs[n])
    assert set(graph.control_edges()) == control
    assert graph.topological_order() == reference_kahn(nodes, preds, succs)
    data_preds, data_succs = reference_structure(graph, set())
    assert graph.topological_order(include_control=False) == \
        reference_kahn(nodes, data_preds, data_succs)


MUTATIONS = st.lists(st.tuples(
    st.sampled_from(("add", "add", "add", "remove", "clear", "node")),
    st.integers(0, 10_000), st.integers(0, 10_000)), max_size=25)


@settings(max_examples=60)
@given(generated_circuits(presets=("tiny", "small", "branchy")), MUTATIONS)
def test_index_matches_reference_after_every_mutation(graph, mutations):
    control = set(graph.control_edges())
    check_index(graph, control)
    for kind, i, j in mutations:
        ids = sorted(graph.node_ids)
        u, v = ids[i % len(ids)], ids[j % len(ids)]
        if kind == "add" and u != v:
            preds, succs = reference_structure(graph, control | {(u, v)})
            cyclic = reference_kahn(ids, preds, succs) is None
            before = graph.control_edges()
            if cyclic:
                with pytest.raises(CDFGError, match="creates a cycle"):
                    graph.add_control_edge(u, v)
                assert graph.control_edges() == before
            else:
                graph.add_control_edge(u, v)
                control.add((u, v))
        elif kind == "remove":
            if control and i % 2:
                u, v = sorted(control)[j % len(control)]
            graph.remove_control_edge(u, v)
            control.discard((u, v))
        elif kind == "clear":
            graph.clear_control_edges()
            control.clear()
        elif kind == "node":
            graph.add_node(Op.ADD, [u, v], name=f"n{len(graph)}")
        check_index(graph, control)


def test_copy_keeps_an_independent_index():
    g, (a, b, c, s0, s1, m, o) = make_diamond()
    g.topological_order()
    clone = g.copy()
    clone.add_control_edge(s1, s0)
    assert s1 in clone.preds(s0) and s1 not in g.preds(s0)
    assert clone.topological_order().index(s1) < \
        clone.topological_order().index(s0)


def test_index_reads_latency_live():
    """The memo holds structure only: retuning a latency after the order
    was memoized still reaches timing analysis."""
    from repro.sched.timing import asap_times

    g, (a, b, c, s0, s1, m, o) = make_diamond()
    assert asap_times(g)[m] == 1
    g.node(s0).latency = 3
    assert asap_times(g)[m] == 3
