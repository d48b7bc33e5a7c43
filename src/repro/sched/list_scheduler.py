"""Resource-constrained list scheduling.

This is our stand-in for HYPER's scheduler (paper step 11): given a step
budget and an execution-unit allocation, place every operation honouring
data *and control* precedence.  Priority is deadline-first (smallest ALAP),
which keeps forced operations from missing their slot.

Supports functional pipelining: with ``initiation_interval=II`` the resource
occupancy of a step is shared with all steps congruent modulo II, modelling
overlapped consecutive samples (paper §IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import CDFG
from repro.ir.ops import ResourceClass
from repro.sched.resources import Allocation
from repro.sched.schedule import Schedule
from repro.sched.timing import InfeasibleScheduleError, TimingFrame


@dataclass
class ListSchedulingFailure(Exception):
    """Scheduling failed; ``bottleneck`` is the resource class that ran out
    (used by the minimum-resource search to decide what to add)."""

    message: str
    bottleneck: ResourceClass | None = None

    def __str__(self) -> str:
        return self.message


def list_schedule(
    graph: CDFG,
    n_steps: int,
    allocation: Allocation,
    initiation_interval: int | None = None,
) -> Schedule:
    """Schedule ``graph`` into ``n_steps`` with ``allocation`` units.

    Raises :class:`InfeasibleScheduleError` if the precedence structure
    alone does not fit, or :class:`ListSchedulingFailure` if resources are
    the limit.
    """
    frame = TimingFrame.compute(graph, n_steps)  # raises if no slack at all
    return schedule_with_frame(graph, frame, allocation, initiation_interval)


def schedule_with_frame(
    graph: CDFG,
    frame: TimingFrame,
    allocation: Allocation,
    initiation_interval: int | None = None,
) -> Schedule:
    """:func:`list_schedule` with the graph's timing frame already known
    (the minimum-resource search reuses one frame for every attempt)."""
    n_steps = frame.n_steps
    ii = initiation_interval
    if ii is not None and ii <= 0:
        raise ValueError(f"initiation interval must be positive, got {ii}")

    start: dict[int, int] = {}
    finished_at: dict[int, int] = {}
    # busy[(slot, cls)] = units in use; slot = step % II when pipelining.
    busy: dict[tuple[int, ResourceClass], int] = {}

    def occupy(nid: int, step: int) -> None:
        node = graph.node(nid)
        start[nid] = step
        finished_at[nid] = step + node.latency
        if node.is_schedulable:
            for s in range(step, step + node.latency):
                slot = s % ii if ii else s
                key = (slot, node.resource)
                busy[key] = busy.get(key, 0) + 1

    def has_unit(node, step: int) -> bool:
        for s in range(step, step + node.latency):
            slot = s % ii if ii else s
            if busy.get((slot, node.resource), 0) >= allocation.get(node.resource):
                return False
        return True

    # Zero-latency nodes (wiring) and operations are placed in one sweep;
    # ready operations go in (alap, asap, nid) order.
    preds = {nid: graph.preds(nid) for nid in graph.node_ids}
    wiring = sorted(n.nid for n in graph if not n.is_schedulable)
    pending_ops = {n.nid for n in graph if n.is_schedulable}

    def done_by(nid: int, step: int) -> bool:
        return all(p in finished_at and finished_at[p] <= step
                   for p in preds[nid])

    for step in range(n_steps):
        # Place every zero-latency node whose predecessors are done (they
        # consume no unit and unlock their consumers within the same step).
        changed = True
        while changed:
            changed = False
            waiting = []
            for nid in wiring:
                if done_by(nid, step):
                    occupy(nid, max((finished_at[p] for p in preds[nid]),
                                    default=0))
                    changed = True
                else:
                    waiting.append(nid)
            wiring = waiting

        ready = [nid for nid in pending_ops if done_by(nid, step)]
        ready.sort(key=lambda nid: (frame.alap[nid], frame.asap[nid], nid))

        for nid in ready:
            node = graph.node(nid)
            if node.latency + step > n_steps:
                raise ListSchedulingFailure(
                    f"{node.label()} cannot finish by step {n_steps}",
                    bottleneck=node.resource,
                )
            if has_unit(node, step):
                occupy(nid, step)
                pending_ops.discard(nid)
            elif frame.alap[nid] == step:
                # Forced op with no free unit: this allocation cannot work.
                raise ListSchedulingFailure(
                    f"step {step}: no free {node.resource.value} unit for "
                    f"forced op {node.label()}",
                    bottleneck=node.resource,
                )

    if pending_ops:
        leftover = [graph.node(n).label() for n in sorted(pending_ops)]
        raise ListSchedulingFailure(
            f"unscheduled ops after {n_steps} steps: {', '.join(leftover)}"
        )
    # Any remaining zero-latency nodes (e.g. outputs of last-step ops).
    for nid in wiring:
        ready_at = max((finished_at[p] for p in preds[nid]), default=0)
        start[nid] = ready_at
        finished_at[nid] = ready_at

    schedule = Schedule(graph=graph, n_steps=n_steps, start=start,
                        initiation_interval=ii)
    schedule.verify(allocation)
    return schedule
