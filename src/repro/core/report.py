"""Human-readable reporting for PM pass results."""

from __future__ import annotations

from repro.core.pm_pass import PMResult


def describe_decisions(result: PMResult) -> str:
    """One line per MUX: selected or why not, plus gated operations."""
    graph = result.graph
    lines = [
        f"power management on {graph.name!r} @ {result.n_steps} steps: "
        f"{result.managed_count}/{len(result.decisions)} muxes managed"
    ]
    for decision in result.decisions:
        mux = graph.node(decision.mux)
        mark = "+" if decision.selected else "-"
        line = f"  [{mark}] {mux.label()}: {decision.reason}"
        if decision.blocker is not None:
            asap, alap = decision.blocker_times
            line += (f" ({graph.node(decision.blocker).label()}: "
                     f"ASAP {asap} > ALAP {alap})")
        if decision.selected:
            names = ", ".join(graph.node(n).label()
                              for n in sorted(decision.gated))
            line += f"; gates {{{names}}}"
        lines.append(line)
    if result.gating:
        lines.append("  guards:")
        for nid in sorted(result.gating):
            guards = " & ".join(
                f"{graph.node(m).label()}={side}"
                for m, side in result.gating[nid]
            )
            lines.append(f"    {graph.node(nid).label()} runs iff {guards}")
    return "\n".join(lines)
