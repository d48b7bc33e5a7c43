"""The power-management scheduling pass — paper Figure 3.

Given a CDFG and a control-step budget (throughput constraint), decide for
each multiplexor whether its data-cone operations can be scheduled *after*
its select signal, and if so commit precedence ("control") edges from the
select driver to the top nodes of the 0/1 shut-down cones.  A downstream
resource-minimizing scheduler (step 11) then produces the final schedule,
and the controller generator turns the gating information into conditional
register-load enables.

Implementation note: the paper commits tightened ASAP/ALAP values per
selected MUX (steps 4-8), and so does this pass.  :class:`CommittedTiming`
holds ASAP/ALAP for the committed graph.  A MUX's tentative control edges
update them incrementally — ASAP forward from the cone tops, ALAP backward
from the select driver, through the nodes whose value actually moves —
stopping at the first node with ASAP > ALAP (recorded as the decision's
``blocker``).  A rejected MUX removes its edges and restores the values
from an undo log; a selected one keeps both, so constraints accumulate
across MUXes exactly as a global recomputation would give them
(:func:`~repro.sched.timing.try_timing` is the from-scratch oracle the
tests check this against).  Cones depend on data edges only, so they are
computed once per MUX up front and shared with the MUX ordering.

Two opt-in generalizations beyond the Figure-3 pseudo-code:

* ``PMOptions.allocation`` makes the feasibility test *resource-aware*: a
  MUX is only selected if the augmented graph still list-schedules under
  the given execution-unit allocation (the pseudo-code checks slack only).
* ``PMOptions.partial`` implements the fallback the paper describes in
  §II-B for the one-subtractor |a-b| schedule ("the operation in the first
  control step will always be computed, but we can still disable the one
  in the second"): when the whole cone cannot be re-timed, gate the subset
  of cone operations that can individually be scheduled after the select
  signal.  Gating a subset is functionally safe — an ungated consumer of a
  gated (stale) value only feeds paths the MUX deselects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

from repro.core.cones import MuxCones, compute_all_cones
from repro.core.ordering import order_muxes
from repro.ir.graph import CDFG, CDFGError
from repro.sched.list_scheduler import ListSchedulingFailure, list_schedule
from repro.sched.resources import UNIT_COST, Allocation
from repro.sched.timing import (
    InfeasibleScheduleError,
    TimingFrame,
    critical_path_length,
    latencies,
)

# Rejection reasons recorded on MuxDecision.
REASON_SELECTED = "selected"
REASON_PARTIAL = "partially-selected"
REASON_NOTHING_TO_GATE = "nothing-to-gate"
REASON_NO_SLACK = "insufficient-slack"
REASON_CYCLE = "would-create-cycle"
REASON_LIMIT = "mux-limit-reached"


@dataclass(frozen=True)
class MuxDecision:
    """Outcome of the paper's steps 3-8 for one multiplexor.

    ``gated`` lists the operations actually gated for this MUX — the whole
    eligible cone when fully selected, a subset under partial selection.

    ``blocker`` names, for an ``insufficient-slack`` refusal, a node whose
    ASAP exceeded its ALAP once the MUX's control edges were added, and
    ``blocker_times`` the (ASAP, ALAP) the pass had reached there when it
    stopped looking (a full re-timing can only widen that gap).  Both are
    ``None`` for every other outcome, and when the refusal came from the
    resource-aware check rather than from slack.
    """

    mux: int
    selected: bool
    reason: str
    cones: MuxCones
    added_edges: tuple[tuple[int, int], ...] = ()
    gated: frozenset[int] = frozenset()
    blocker: int | None = None
    blocker_times: tuple[int, int] | None = None


@dataclass
class PMResult:
    """Everything the rest of the flow needs after the PM pass.

    ``graph`` is a copy of the input augmented with the control edges of
    every selected MUX; ``gating`` maps a node id to the (mux, side) guards
    under which it executes — the controller loads its operands only when
    every guard's select register holds the required side.
    """

    graph: CDFG
    n_steps: int
    decisions: list[MuxDecision] = field(default_factory=list)
    gating: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    @property
    def selected_muxes(self) -> list[int]:
        return [d.mux for d in self.decisions if d.selected]

    @property
    def fully_selected_muxes(self) -> list[int]:
        return [d.mux for d in self.decisions
                if d.selected and d.reason == REASON_SELECTED]

    @property
    def partially_selected_muxes(self) -> list[int]:
        return [d.mux for d in self.decisions
                if d.selected and d.reason == REASON_PARTIAL]

    @property
    def rejected_muxes(self) -> list[int]:
        return [d.mux for d in self.decisions if not d.selected]

    @property
    def managed_count(self) -> int:
        """Paper Table II column 3: number of power-managed multiplexors."""
        return len(self.selected_muxes)

    def decision_for(self, mux_id: int) -> MuxDecision:
        for decision in self.decisions:
            if decision.mux == mux_id:
                return decision
        raise KeyError(f"no decision recorded for mux {mux_id}")

    def gated_ops(self) -> set[int]:
        """All operations with at least one shut-down guard."""
        return set(self.gating)


@dataclass(frozen=True)
class PMOptions:
    """Knobs for the PM pass.

    ordering:     MUX processing order strategy (see repro.core.ordering).
    given_order:  explicit order for strategy "given".
    max_muxes:    stop selecting after this many MUXes (None = unlimited).
    enabled:      False turns the pass into a no-op (the paper's baseline:
                  traditional scheduling, everything always executes).
    allocation:   when given, feasibility additionally requires the
                  augmented graph to list-schedule under this allocation
                  (resource-aware power management).
    partial:      allow per-operation fallback when a whole cone does not
                  fit (see module docstring).
    """

    ordering: str = "output_first"
    given_order: Sequence[int] | None = None
    max_muxes: int | None = None
    enabled: bool = True
    allocation: Allocation | None = None
    partial: bool = False


class CommittedTiming:
    """ASAP/ALAP of the pass's committed graph, kept up to date per MUX.

    The pass only adds control edges ``driver -> top``.  Those can only
    raise the ASAP of the tops and their descendants, and only lower the
    ALAP of the driver and its ancestors.  The two regions are disjoint
    (a node in both would close a cycle, which ``add_control_edge``
    refuses), and the new edges only enter the first region and leave the
    second, so positions in the committed graph's topological order still
    order both.  :meth:`tighten` relaxes, in that order, only the nodes
    whose value moves, logging each old value, and stops at the first node
    with ASAP > ALAP.  :meth:`commit` keeps the values, :meth:`revert`
    restores them from the log; after either, ``asap`` and ``alap`` equal
    :meth:`TimingFrame.compute` on the committed graph.

    Latencies are read once, when the timing is built.
    """

    def __init__(self, graph: CDFG, n_steps: int) -> None:
        frame = TimingFrame.compute(graph, n_steps)
        self.graph = graph
        self.n_steps = n_steps
        self.asap = dict(frame.asap)
        self.alap = dict(frame.alap)
        self._latency = latencies(graph)
        self._reposition()
        # Undo log of (table, node, old value), and the edges tightened
        # since the last commit or revert.
        self._log: list[tuple[dict[int, int], int, int]] = []
        self._edges: list[tuple[int, int]] = []

    def _reposition(self) -> None:
        self._position: dict[int, int] = {
            nid: k for k, nid in enumerate(self.graph.topological_order())}

    def tighten(self, driver: int, tops: Sequence[int]) -> int | None:
        """Account for control edges ``driver -> top`` for each of ``tops``
        (already added to the graph).  Returns a node whose ASAP now
        exceeds its ALAP, or ``None`` if the times still fit; either way
        the caller must :meth:`commit` or :meth:`revert` next."""
        if not tops:
            return None
        asap, alap, latency = self.asap, self.alap, self._latency
        position, log = self._position, self._log
        self._edges.extend((driver, top) for top in tops)

        # ASAP forward from the tops.
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()
        ready = asap[driver] + latency[driver]
        for top in tops:
            if ready > asap[top]:
                log.append((asap, top, asap[top]))
                asap[top] = ready
                if ready > alap[top]:
                    return top
                queued.add(top)
                heappush(heap, (position[top], top))
        succs_of = self.graph.succs
        while heap:
            nid = heappop(heap)[1]
            done = asap[nid] + latency[nid]
            for succ in succs_of(nid):
                if done > asap[succ]:
                    log.append((asap, succ, asap[succ]))
                    asap[succ] = done
                    if done > alap[succ]:
                        return succ
                    if succ not in queued:
                        queued.add(succ)
                        heappush(heap, (position[succ], succ))

        # ALAP backward from the driver.
        due = min(alap[top] for top in tops) - latency[driver]
        if due >= alap[driver]:
            return None
        log.append((alap, driver, alap[driver]))
        alap[driver] = due
        if asap[driver] > due:
            return driver
        heap = [(-position[driver], driver)]
        queued = {driver}
        preds_of = self.graph.preds
        while heap:
            nid = heappop(heap)[1]
            for pred in preds_of(nid):
                late = alap[nid] - latency[pred]
                if late < alap[pred]:
                    log.append((alap, pred, alap[pred]))
                    alap[pred] = late
                    if asap[pred] > late:
                        return pred
                    if pred not in queued:
                        queued.add(pred)
                        heappush(heap, (-position[pred], pred))
        return None

    def commit(self) -> None:
        """Keep the tightened times (the edges stay in the graph)."""
        position = self._position
        if any(position[d] > position[t] for d, t in self._edges):
            self._reposition()
        self._log.clear()
        self._edges.clear()

    def revert(self) -> None:
        """Restore the committed times (after the caller removed the
        edges)."""
        for table, nid, old in reversed(self._log):
            table[nid] = old
        self._log.clear()
        self._edges.clear()


def _fits_allocation(work: CDFG, n_steps: int, options: PMOptions) -> bool:
    """Resource feasibility, when the options ask for it."""
    if options.allocation is None:
        return True
    try:
        list_schedule(work, n_steps, options.allocation)
    except (ListSchedulingFailure, InfeasibleScheduleError):
        return False
    return True


def apply_power_management(
    graph: CDFG,
    n_steps: int,
    options: PMOptions = PMOptions(),
) -> PMResult:
    """Run the paper's Figure-3 algorithm on ``graph`` for ``n_steps``.

    The input graph is not modified; the result holds an augmented copy.
    Raises :class:`~repro.sched.timing.InfeasibleScheduleError` if even the
    unconstrained graph misses the step budget.
    """
    cp = critical_path_length(graph)
    if n_steps < cp:
        raise InfeasibleScheduleError(
            f"{n_steps} steps < critical path {cp} of {graph.name!r}"
        )

    work = graph.copy()
    result = PMResult(graph=work, n_steps=n_steps)
    if not options.enabled:
        return result

    all_cones = compute_all_cones(work)
    order = order_muxes(work, options.ordering, options.given_order,
                        cones=all_cones)
    timing = CommittedTiming(work, n_steps)
    gating: dict[int, list[tuple[int, int]]] = {}

    for mux_id in order:
        cones = all_cones[mux_id]
        if (options.max_muxes is not None
                and result.managed_count >= options.max_muxes):
            result.decisions.append(MuxDecision(
                mux=mux_id, selected=False, reason=REASON_LIMIT, cones=cones))
            continue

        gatable = cones.all_shutdown_ops(work)
        if not gatable:
            result.decisions.append(MuxDecision(
                mux=mux_id, selected=False, reason=REASON_NOTHING_TO_GATE,
                cones=cones))
            continue

        decision = _try_full_selection(work, timing, options, mux_id, cones)
        if not decision.selected and options.partial \
                and decision.reason == REASON_NO_SLACK:
            decision = _try_partial_selection(work, timing, options, mux_id,
                                              cones) or decision
        result.decisions.append(decision)
        if decision.selected:
            for side in (0, 1):
                for nid in cones.shutdown_ops(work, side):
                    if nid in decision.gated:
                        gating.setdefault(nid, []).append((mux_id, side))

    result.gating = {nid: tuple(guards) for nid, guards in gating.items()}
    return result


def _try_full_selection(work: CDFG, timing: CommittedTiming,
                        options: PMOptions, mux_id: int,
                        cones: MuxCones) -> MuxDecision:
    """Paper steps 4-8: re-time the whole cone or revert."""
    driver = work.node(mux_id).select_operand
    edges: list[tuple[int, int]] = []
    reason = REASON_SELECTED
    feasible = True
    try:
        for side in (0, 1):
            for top in sorted(cones.top_nodes(work, side)):
                # add_control_edge refuses self-edges and cycles, which
                # surfaces as CDFGError and rejects this MUX.
                if top not in work.control_succs(driver):
                    work.add_control_edge(driver, top)
                    edges.append((driver, top))
    except CDFGError:
        feasible = False
        reason = REASON_CYCLE

    blocker = times = None
    if feasible:
        blocker = timing.tighten(driver, [top for _, top in edges])
        if blocker is not None:
            times = (timing.asap[blocker], timing.alap[blocker])
        if blocker is not None \
                or not _fits_allocation(work, timing.n_steps, options):
            feasible = False
            reason = REASON_NO_SLACK

    if not feasible:
        for src, dst in edges:
            work.remove_control_edge(src, dst)
        timing.revert()
        return MuxDecision(mux=mux_id, selected=False, reason=reason,
                           cones=cones, blocker=blocker, blocker_times=times)
    timing.commit()
    return MuxDecision(
        mux=mux_id, selected=True, reason=REASON_SELECTED, cones=cones,
        added_edges=tuple(edges), gated=cones.all_shutdown_ops(work))


def _try_partial_selection(work: CDFG, timing: CommittedTiming,
                           options: PMOptions, mux_id: int,
                           cones: MuxCones) -> MuxDecision | None:
    """§II-B fallback: gate the individually re-timable cone subset.

    Greedy by power weight (most expensive units first), so under a tight
    budget the multiplier is disabled before an adder.  Each candidate gets
    a direct control edge from the select driver; infeasible candidates
    are reverted independently.  Returns ``None`` when nothing fits.
    """
    driver = work.node(mux_id).select_operand
    candidates = sorted(
        cones.all_shutdown_ops(work),
        key=lambda nid: (-UNIT_COST[work.node(nid).resource], nid),
    )
    edges: list[tuple[int, int]] = []
    gated: set[int] = set()
    for nid in candidates:
        pre_existing = nid in work.control_succs(driver)
        try:
            if not pre_existing:
                work.add_control_edge(driver, nid)
        except CDFGError:
            continue
        new_tops = () if pre_existing else (nid,)
        if timing.tighten(driver, new_tops) is None \
                and _fits_allocation(work, timing.n_steps, options):
            timing.commit()
            gated.add(nid)
            if not pre_existing:
                edges.append((driver, nid))
        else:
            if not pre_existing:
                work.remove_control_edge(driver, nid)
            timing.revert()

    if not gated:
        return None
    return MuxDecision(
        mux=mux_id, selected=True, reason=REASON_PARTIAL, cones=cones,
        added_edges=tuple(edges), gated=frozenset(gated))
