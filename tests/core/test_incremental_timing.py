"""The PM pass's incremental ASAP/ALAP against from-scratch timing.

``CommittedTiming`` updates the committed graph's ASAP/ALAP per MUX and
undoes rejected MUXes from a log; ``TimingFrame.compute`` recomputes
them from nothing.  After every commit and every revert the two must
agree, and every ``insufficient-slack`` refusal must name a node that
really has ASAP > ALAP once the refused edges are in.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import abs_diff, build
from repro.core import describe_decisions
from repro.core.cones import compute_all_cones
from repro.core.ordering import order_muxes
from repro.core.pm_pass import (
    REASON_NO_SLACK,
    CommittedTiming,
    PMOptions,
    apply_power_management,
)
from repro.sched.timing import TimingFrame, critical_path_length
from tests.strategies import generated_circuits


@contextmanager
def checked_timing():
    """Compare the pass's times with TimingFrame after every commit and
    revert inside the block; yields the list of checks made."""
    checks = []
    commit, revert = CommittedTiming.commit, CommittedTiming.revert

    def check(self, event):
        frame = TimingFrame.compute(self.graph, self.n_steps)
        assert self.asap == frame.asap, f"ASAP drifted after {event}"
        assert self.alap == frame.alap, f"ALAP drifted after {event}"
        checks.append(event)

    def checked_commit(self):
        commit(self)
        check(self, "commit")

    def checked_revert(self):
        revert(self)
        check(self, "revert")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CommittedTiming, "commit", checked_commit)
        patch.setattr(CommittedTiming, "revert", checked_revert)
        yield checks


OPTIONS = (PMOptions(), PMOptions(ordering="savings"),
           PMOptions(partial=True), PMOptions(ordering="input_first",
                                              partial=True))


@settings(max_examples=40)
@given(graph=generated_circuits(), slack=st.integers(0, 4),
       options=st.sampled_from(OPTIONS))
def test_times_match_from_scratch_after_every_step(graph, slack, options):
    cp = critical_path_length(graph)
    with checked_timing():
        apply_power_management(graph, cp + slack, options)


@pytest.mark.parametrize("name,steps,events", [
    ("cordic", 32, {"revert"}), ("cordic", 40, {"commit", "revert"}),
    ("vender", 6, {"commit"}), ("gcd", 5, {"commit"})])
def test_times_match_from_scratch_on_benchmarks(name, steps, events):
    with checked_timing() as checks:
        apply_power_management(build(name), steps, PMOptions(partial=True))
    assert set(checks) == events


def decision_time_graph(graph, result, index):
    """The input graph with the edges committed before decision
    ``index`` and the full-cone edges that decision tried."""
    work = graph.copy()
    for earlier in result.decisions[:index]:
        for src, dst in earlier.added_edges:
            work.add_control_edge(src, dst)
    decision = result.decisions[index]
    driver = work.node(decision.mux).select_operand
    for side in (0, 1):
        for top in decision.cones.top_nodes(work, side):
            if top not in work.control_succs(driver):
                work.add_control_edge(driver, top)
    return work


def reference_times(graph, n_steps):
    """ASAP/ALAP by plain longest paths, without raising on a negative
    ALAP (TimingFrame stops at the first infeasible node)."""
    order = graph.topological_order()
    latency = {n.nid: n.latency for n in graph}
    asap, alap = {}, {}
    for nid in order:
        asap[nid] = max((asap[p] + latency[p] for p in graph.preds(nid)),
                        default=0)
    for nid in reversed(order):
        alap[nid] = min((alap[s] for s in graph.succs(nid)),
                        default=n_steps) - latency[nid]
    return asap, alap


def check_blockers(graph, n_steps, result):
    named = 0
    for index, decision in enumerate(result.decisions):
        if decision.reason != REASON_NO_SLACK:
            assert decision.blocker is None
            assert decision.blocker_times is None
            continue
        assert decision.blocker is not None
        work = decision_time_graph(graph, result, index)
        asap, alap = reference_times(work, n_steps)
        blocker = decision.blocker
        seen_asap, seen_alap = decision.blocker_times
        assert asap[blocker] > alap[blocker]
        assert seen_asap > seen_alap
        assert asap[blocker] >= seen_asap and alap[blocker] <= seen_alap
        named += 1
    return named


def test_blocker_on_the_paper_example():
    """|a-b| at 2 steps: a subtraction would have to start at step 1 and
    finish by step 1."""
    graph = abs_diff()
    result = apply_power_management(graph, 2)
    decision = result.decisions[0]
    assert decision.reason == REASON_NO_SLACK
    assert graph.node(decision.blocker).name in ("a_minus_b", "b_minus_a")
    assert decision.blocker_times == (1, 0)
    assert check_blockers(graph, 2, result) == 1
    assert re.search(r"insufficient-slack \((a_minus_b|b_minus_a):-: "
                     r"ASAP 1 > ALAP 0\)", describe_decisions(result))


def test_selected_muxes_name_no_blocker():
    result = apply_power_management(abs_diff(), 3)
    assert result.decisions[0].selected
    assert result.decisions[0].blocker is None
    assert "ASAP" not in describe_decisions(result)


@settings(max_examples=40)
@given(graph=generated_circuits(), slack=st.integers(0, 3),
       options=st.sampled_from(OPTIONS))
def test_blocker_violates_from_scratch_timing(graph, slack, options):
    n_steps = critical_path_length(graph) + slack
    result = apply_power_management(graph, n_steps, options)
    check_blockers(graph, n_steps, result)


def test_cordic_blockers_are_real():
    graph = build("cordic")
    result = apply_power_management(graph, 32)
    assert check_blockers(graph, 32, result) > 0


def test_savings_order_with_shared_cones_matches_fresh():
    graph = build("gen:branchy:2")
    assert order_muxes(graph, "savings") == order_muxes(
        graph, "savings", cones=compute_all_cones(graph))
