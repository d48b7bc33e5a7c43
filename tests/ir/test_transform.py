"""Graph transforms: rebuild, dead-node elimination, constant folding."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.ir.ops import Op
from repro.ir.transform import eliminate_dead_nodes, fold_constants, rebuild
from repro.sim.reference import evaluate


def graph_with_dead_op():
    b = GraphBuilder("t")
    a = b.input("a")
    live = b.add(a, 1, name="live")
    b.sub(a, 1, name="dead")
    b.output(live, "out")
    return b.build(validate_graph=False)


class TestRebuild:
    def test_renumbers_densely(self):
        g = graph_with_dead_op()
        out = rebuild(g)
        assert sorted(n.nid for n in out) == list(range(len(out)))
        assert len(out) == len(g)

    def test_keep_subset(self):
        g = graph_with_dead_op()
        keep = set()
        for out in g.outputs():
            keep |= g.transitive_fanin(out.nid, include_self=True)
        smaller = rebuild(g, keep=keep)
        assert len(smaller) < len(g)

    def test_dropped_operand_detected(self):
        g = graph_with_dead_op()
        live_consumer = g.outputs()[0].nid
        keep = {live_consumer}  # operand chain missing
        with pytest.raises(ValueError, match="operand"):
            rebuild(g, keep=keep)

    def test_control_edges_survive(self, diamond_graph):
        g = diamond_graph.copy()
        muxes = g.muxes()
        cond = g.node(muxes[0].nid).select_operand
        target = muxes[0].data_operand(0)
        g.add_control_edge(cond, target)
        out = rebuild(g)
        assert len(out.control_edges()) == 1


class TestDeadNodeElimination:
    def test_removes_dead(self):
        g = graph_with_dead_op()
        clean = eliminate_dead_nodes(g)
        assert all(n.name != "dead" for n in clean)
        assert evaluate(clean, {"a": 5})["out"] == 6

    def test_idempotent(self, dealer_graph):
        once = eliminate_dead_nodes(dealer_graph)
        twice = eliminate_dead_nodes(once)
        assert len(once) == len(twice)


class TestConstantFolding:
    def test_folds_arithmetic(self):
        b = GraphBuilder("t")
        a = b.input("a")
        c = b.add(b.const(2), b.const(3))
        b.output(b.add(a, c), "out")
        g = fold_constants(b.build())
        adds = [n for n in g if n.op is Op.ADD]
        assert len(adds) == 1  # 2+3 folded
        assert evaluate(g, {"a": 1})["out"] == 6

    def test_folds_constant_mux_select(self):
        b = GraphBuilder("t")
        a = b.input("a")
        m = b.mux(b.const(1), a + 1, a + 2)
        b.output(m, "out")
        g = fold_constants(b.build())
        assert not g.muxes()
        assert evaluate(g, {"a": 0})["out"] == 2  # select=1 routes in1

    def test_folding_respects_width(self):
        b = GraphBuilder("t")
        a = b.input("a")
        c = b.add(b.const(100), b.const(100))
        b.output(b.mux(a > 0, c, c), "out")
        g = fold_constants(b.build(), width=8)
        consts = {n.value for n in g.constants()}
        assert -56 in consts

    @staticmethod
    def by_name(graph):
        return {n.name: n.nid for n in graph if n.name}

    def test_control_edge_between_surviving_nodes_is_kept(self):
        b = GraphBuilder("t")
        a, c = b.input("a"), b.input("c")
        b.output(b.add(a, c, name="x"), "ox")
        b.output(b.sub(a, c, name="y"), "oy")
        g = b.build()
        ids = self.by_name(g)
        g.add_control_edge(ids["x"], ids["y"])
        folded = fold_constants(g)
        new = self.by_name(folded)
        assert folded.control_edges() == [(new["x"], new["y"])]

    def test_control_edge_from_a_folded_constant_is_dropped(self):
        b = GraphBuilder("t")
        a = b.input("a")
        k = b.add(b.const(2), b.const(3), name="k")
        b.output(b.add(a, k, name="y"), "out")
        g = b.build()
        ids = self.by_name(g)
        g.add_control_edge(ids["k"], ids["y"])
        folded = fold_constants(g)
        assert "k" not in self.by_name(folded)
        assert folded.control_edges() == []

    def test_control_edge_closing_a_cycle_after_folding_is_dropped(self):
        """mux(1, p, q) collapses onto q, so u -> mux becomes u -> q while
        u consumes q: the edge would close a cycle and is dropped."""
        b = GraphBuilder("t")
        a = b.input("a")
        q = b.add(a, 1, name="q")
        b.output(b.mux(b.const(1), a, q, name="m"), "om")
        b.output(b.mul(q, 2, name="u"), "ou")
        g = b.build()
        ids = self.by_name(g)
        g.add_control_edge(ids["u"], ids["m"])
        folded = fold_constants(g)
        assert folded.control_edges() == []
        assert evaluate(folded, {"a": 3}) == evaluate(g, {"a": 3})

    def test_only_graph_errors_are_swallowed(self, monkeypatch):
        from repro.ir.graph import CDFG

        g = graph_with_dead_op()
        live = next(n.nid for n in g if n.name == "live")
        g.add_control_edge(g.inputs()[0].nid, live)

        def broken(self, src, dst):
            raise RuntimeError("fault in the cycle check")

        monkeypatch.setattr(CDFG, "add_control_edge", broken)
        with pytest.raises(RuntimeError, match="cycle check"):
            fold_constants(g)

    def test_behaviour_preserved_on_benchmarks(self, small_circuit):
        from repro.sim.vectors import random_vectors
        folded = fold_constants(small_circuit)
        for vec in random_vectors(small_circuit, 20, seed=3):
            assert evaluate(folded, vec) == evaluate(small_circuit, vec)
