"""Iterative modulo scheduling (functional pipelining, paper §IV-B).

The legacy pipelining path (:mod:`repro.sched.pipeline`) fixes the
initiation interval by ceil-division ``II = ceil(L / k)`` and hands it to
the list scheduler.  This module instead *searches* for the smallest
feasible II, Rau-style:

1. bound the search from below with ``MII`` = ResMII, floored at 1 —
   :func:`resource_mii` from unit occupancy.  CDFGs are acyclic and
   every edge stays within one sample, so no recurrence bounds II;
2. for each candidate II, run :func:`modulo_schedule`: a budgeted
   iterative scheduler that places operations against a *modulo
   reservation table* (unit occupancy counted mod II, multi-cycle ops
   spanning wrapped slots) and, when an operation finds no slot, forces
   a placement by evicting the least-critical conflicting occupants and
   any successors the move invalidates;
3. the first II that schedules wins; :func:`minimize_initiation_interval`
   falls back to the ceil-division list schedule when the search cannot
   beat it, so the found II is never worse than the legacy one.

Dependences are handled at the *operation* level: zero-latency wiring
chains are collapsed to edges between the schedulable producers and
consumers they connect (gap = producer latency), and the wiring nodes are
re-placed after the ops settle, exactly as the list scheduler does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import CDFG
from repro.ir.ops import ResourceClass
from repro.sched.minimize import minimize_resources
from repro.sched.resources import Allocation
from repro.sched.schedule import Schedule
from repro.sched.timing import TimingFrame


class ModuloSchedulingError(Exception):
    """No modulo schedule found at the attempted initiation interval.

    ``bottleneck`` names the resource class that ran out of reservation
    slots, when one could be identified.
    """

    def __init__(self, message: str,
                 bottleneck: ResourceClass | None = None) -> None:
        super().__init__(message)
        self.bottleneck = bottleneck


def resource_mii(graph: CDFG, allocation: Allocation) -> int:
    """Resource-constrained lower bound on the initiation interval.

    Each operation occupies one unit of its class for ``latency``
    consecutive slots of the reservation table, so a class with ``B``
    total busy-cycles on ``u`` units forces ``II >= ceil(B / u)``.
    """
    busy: dict[ResourceClass, int] = {}
    for node in graph.operations():
        busy[node.resource] = busy.get(node.resource, 0) + node.latency
    mii = 1
    for cls, total in busy.items():
        units = allocation.get(cls)
        if units <= 0:
            raise ValueError(
                f"allocation provides no {cls.value} unit but "
                f"{graph.name!r} needs {total} busy-cycles of it")
        mii = max(mii, -(-total // units))
    return mii


def _op_dependences(graph: CDFG) -> dict[int, set[int]]:
    """Operation-level precedence: ``deps[v]`` is the set of schedulable
    ops whose finish bounds ``v``'s start, with zero-latency wiring chains
    collapsed away (data and control edges alike)."""
    producers: dict[int, frozenset[int]] = {}
    for nid in graph.topological_order():
        node = graph.node(nid)
        if node.is_schedulable:
            producers[nid] = frozenset((nid,))
        else:
            roots: set[int] = set()
            for pred in graph.preds(nid):
                roots |= producers[pred]
            producers[nid] = frozenset(roots)
    deps: dict[int, set[int]] = {}
    for node in graph.operations():
        roots = set()
        for pred in graph.preds(node.nid):
            roots |= producers[pred]
        roots.discard(node.nid)
        deps[node.nid] = roots
    return deps


def modulo_schedule(
    graph: CDFG,
    n_steps: int,
    allocation: Allocation,
    initiation_interval: int,
    budget_ratio: int = 16,
) -> Schedule:
    """One fixed-II attempt of the iterative modulo scheduler.

    Places every operation within its ASAP/ALAP window against a modulo
    reservation table with ``allocation`` units per class.  Operations are
    tried deadline-first; one that finds no conflict-free slot in its
    ``[earliest, earliest + II - 1]`` window is *forced* in, evicting the
    least-critical same-class occupants (and any already-placed successors
    the move invalidates), which then re-enter the queue.  Total
    placements are bounded by ``budget_ratio * n_ops``.

    Raises :class:`~repro.sched.timing.InfeasibleScheduleError` when the
    precedence structure alone does not fit ``n_steps``, and
    :class:`ModuloSchedulingError` when no schedule was found at this II.
    """
    ii = initiation_interval
    if ii < 1:
        raise ValueError(f"initiation interval must be >= 1, got {ii}")
    frame = TimingFrame.compute(graph, n_steps)  # raises if no slack at all
    deps = _op_dependences(graph)
    consumers: dict[int, set[int]] = {nid: set() for nid in deps}
    for nid, roots in deps.items():
        for root in roots:
            consumers[root].add(nid)

    latency = {nid: graph.node(nid).latency for nid in deps}
    cls_of = {nid: graph.node(nid).resource for nid in deps}

    def priority(nid: int) -> tuple[int, int, int]:
        return (frame.alap[nid], frame.asap[nid], nid)

    start: dict[int, int] = {}
    last_start: dict[int, int] = {}
    # The modulo reservation table: units of `cls` busy in slot `s % II`.
    table: dict[tuple[int, ResourceClass], int] = {}

    def occupy(nid: int, step: int, sign: int) -> None:
        for k in range(latency[nid]):
            key = ((step + k) % ii, cls_of[nid])
            table[key] = table.get(key, 0) + sign

    def fits(nid: int, step: int) -> bool:
        need: dict[int, int] = {}
        for k in range(latency[nid]):
            slot = (step + k) % ii
            need[slot] = need.get(slot, 0) + 1
        cap = allocation.get(cls_of[nid])
        return all(table.get((slot, cls_of[nid]), 0) + n <= cap
                   for slot, n in need.items())

    def unschedule(nid: int) -> None:
        occupy(nid, start.pop(nid), -1)
        pending.add(nid)

    def force_in(nid: int, step: int) -> None:
        """Evict same-class occupants until ``nid`` fits at ``step``."""
        cls = cls_of[nid]
        cap = allocation.get(cls)
        need: dict[int, int] = {}
        for k in range(latency[nid]):
            slot = (step + k) % ii
            need[slot] = need.get(slot, 0) + 1
        for slot, n in need.items():
            if n > cap:
                raise ModuloSchedulingError(
                    f"II={ii}: {graph.node(nid).label()} alone needs {n} "
                    f"{cls.value} units in slot {slot} but only {cap} are "
                    "allocated", bottleneck=cls)
            while table.get((slot, cls), 0) + n > cap:
                victims = [
                    other for other in start
                    if cls_of[other] is cls and any(
                        (start[other] + k) % ii == slot
                        for k in range(latency[other]))
                ]
                # table > 0 implies a scheduled occupant exists.
                victim = max(victims, key=priority)
                unschedule(victim)

    pending = set(deps)
    budget = max(64, budget_ratio * len(pending))
    while pending:
        if budget <= 0:
            raise ModuloSchedulingError(
                f"II={ii}: placement budget exhausted after repeated "
                f"evictions on {graph.name!r}")
        budget -= 1
        nid = min(pending, key=priority)
        pending.discard(nid)
        earliest = frame.asap[nid]
        for dep in deps[nid]:
            if dep in start:
                earliest = max(earliest, start[dep] + latency[dep])
        deadline = frame.alap[nid]
        placed_at = None
        # Slots repeat with period II, so a window of II starts is enough.
        for step in range(earliest, min(deadline, earliest + ii - 1) + 1):
            if fits(nid, step):
                placed_at = step
                break
        if placed_at is None:
            placed_at = earliest
            previous = last_start.get(nid)
            if previous is not None and previous >= earliest:
                placed_at = previous + 1
            if placed_at > deadline:
                raise ModuloSchedulingError(
                    f"II={ii}: no reservation slot for "
                    f"{graph.node(nid).label()} within steps "
                    f"[{earliest}, {deadline}]", bottleneck=cls_of[nid])
            force_in(nid, placed_at)
        start[nid] = placed_at
        last_start[nid] = placed_at
        occupy(nid, placed_at, +1)
        finish = placed_at + latency[nid]
        for consumer in consumers[nid]:
            if consumer in start and start[consumer] < finish:
                unschedule(consumer)

    # Settle zero-latency nodes exactly as the list scheduler does:
    # sources at step 0, wiring/outputs at their operands' finish.
    for nid in graph.topological_order():
        node = graph.node(nid)
        if node.is_schedulable:
            continue
        preds = graph.preds(nid)
        start[nid] = max(
            (start[p] + graph.node(p).latency for p in preds), default=0)

    schedule = Schedule(graph=graph, n_steps=n_steps, start=start,
                        initiation_interval=ii)
    schedule.verify(allocation)
    return schedule


@dataclass(frozen=True)
class ModuloResult:
    """Outcome of the II-minimization search.

    ``method`` is ``"modulo"`` when the iterative scheduler found an II
    below the cap, ``"list"`` when the ceil-division incumbent (the legacy
    list-scheduled pipeline) was kept — either because it already sits at
    MII or because no smaller II was feasible.  ``mii`` is the ResMII
    lower bound the search started from.
    """

    schedule: Schedule
    allocation: Allocation
    initiation_interval: int
    mii: int
    attempts: int
    method: str = "modulo"


def minimize_initiation_interval(
    graph: CDFG,
    n_steps: int,
    max_ii: int | None = None,
    allocation: Allocation | None = None,
    budget_ratio: int = 16,
) -> ModuloResult:
    """Smallest-II modulo schedule of ``graph`` within ``n_steps``.

    With ``allocation=None`` (the normal flow path) the resource budget is
    taken from the minimum-resource list schedule at ``II = max_ii`` — the
    legacy ceil-division pipeline — which doubles as the incumbent: the
    result's II is guaranteed ``<= max_ii`` whenever that schedule exists,
    and strictly smaller whenever the modulo scheduler finds one.  With an
    explicit ``allocation`` there is no incumbent and the search raises
    :class:`ModuloSchedulingError` when every ``II <= max_ii`` fails.
    """
    cap = n_steps if max_ii is None else max_ii
    if cap < 1:
        raise ValueError(f"initiation interval cap must be >= 1, got {cap}")
    cap = min(cap, n_steps) if n_steps >= 1 else cap

    incumbent = None
    if allocation is None:
        incumbent = minimize_resources(graph, n_steps,
                                       initiation_interval=cap)
        allocation = incumbent.allocation

    mii = resource_mii(graph, allocation)

    attempts = 0
    for ii in range(mii, cap + 1):
        if incumbent is not None and ii == cap:
            break  # the incumbent already proves the cap is feasible
        attempts += 1
        try:
            schedule = modulo_schedule(graph, n_steps, allocation, ii,
                                       budget_ratio=budget_ratio)
        except ModuloSchedulingError:
            continue
        return ModuloResult(
            schedule=schedule, allocation=schedule.resource_usage(),
            initiation_interval=ii, mii=mii, attempts=attempts,
            method="modulo")

    if incumbent is not None:
        return ModuloResult(
            schedule=incumbent.schedule, allocation=incumbent.allocation,
            initiation_interval=cap, mii=mii, attempts=attempts,
            method="list")
    raise ModuloSchedulingError(
        f"no initiation interval in [{mii}, {cap}] schedules "
        f"{graph.name!r} in {n_steps} steps under {allocation}")
