"""ASAP / ALAP timing analysis over CDFGs.

Control steps are 0-indexed: a node with start ``s`` and latency ``l``
occupies steps ``s .. s+l-1`` and its result is available at step ``s+l``.
Zero-latency nodes (inputs, constants, wiring) produce their value at their
start step and occupy no execution unit.

All analyses respect both data edges and control edges, so the PM pass's
added precedence (paper step 10) automatically tightens ASAP/ALAP — this is
exactly the re-timing of steps 4-5 of the paper's pseudo-code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.graph import CDFG


class InfeasibleScheduleError(Exception):
    """The graph cannot be scheduled within the requested control steps."""


def latencies(graph: CDFG) -> dict[int, int]:
    """Latency of every node, read once per analysis (the graph's index
    memoizes structure only, so a caller may retune latencies)."""
    return {node.nid: node.latency for node in graph}


def asap_times(graph: CDFG) -> dict[int, int]:
    """Earliest start step of every node (paper's ASAP values)."""
    latency = latencies(graph)
    preds_of = graph.preds
    asap: dict[int, int] = {}
    for nid in graph.topological_order():
        asap[nid] = max((asap[p] + latency[p] for p in preds_of(nid)),
                        default=0)
    return asap


def critical_path_length(graph: CDFG) -> int:
    """Minimum number of control steps any schedule needs (paper Table I
    column 2: *Critical Path*)."""
    asap = asap_times(graph)
    if not asap:
        return 0
    return max(asap[nid] + graph.node(nid).latency for nid in asap)


def alap_times(graph: CDFG, n_steps: int) -> dict[int, int]:
    """Latest start step of every node for a ``n_steps`` schedule.

    Raises InfeasibleScheduleError if ``n_steps`` is below the critical path.
    """
    latency = latencies(graph)
    succs_of = graph.succs
    alap: dict[int, int] = {}
    for nid in reversed(graph.topological_order()):
        late = min((alap[s] for s in succs_of(nid)), default=n_steps) \
            - latency[nid]
        if late < 0:
            raise InfeasibleScheduleError(
                f"{n_steps} control steps infeasible: node "
                f"{graph.node(nid).label()} would need to start at step "
                f"{late}"
            )
        alap[nid] = late
    return alap


@dataclass(frozen=True)
class TimingFrame:
    """ASAP/ALAP pair for a fixed step budget, with mobility helpers.

    This is the object the PM pass inspects for the paper's step-6 test
    (``ASAP > ALAP`` => power management not possible).
    """

    n_steps: int
    asap: dict[int, int]
    alap: dict[int, int]

    @classmethod
    def compute(cls, graph: CDFG, n_steps: int) -> "TimingFrame":
        asap = asap_times(graph)
        alap = alap_times(graph, n_steps)
        for nid, early in asap.items():
            if early > alap[nid]:
                raise InfeasibleScheduleError(
                    f"node {graph.node(nid).label()}: ASAP {early} > "
                    f"ALAP {alap[nid]} with {n_steps} steps"
                )
        return cls(n_steps=n_steps, asap=dict(asap), alap=dict(alap))

    def mobility(self, nid: int) -> int:
        """Slack of a node: number of alternative start steps."""
        return self.alap[nid] - self.asap[nid]

    def is_feasible(self) -> bool:
        return all(self.asap[n] <= self.alap[n] for n in self.asap)


def try_timing(graph: CDFG, n_steps: int) -> TimingFrame | None:
    """TimingFrame if ``graph`` fits in ``n_steps``, else None.

    This is the feasibility probe the PM pass runs after tentatively adding
    control edges (paper steps 4-7).
    """
    try:
        return TimingFrame.compute(graph, n_steps)
    except InfeasibleScheduleError:
        return None
