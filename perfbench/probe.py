"""Point measurements behind the figures README.md quotes.

Run from the repository root::

    python3 perfbench/probe.py

Prints, best of ``--repeat`` runs, each on freshly synthesized designs
with the engine compile caches cleared first, so every figure is what
one cold ``repro synthesize`` or one optimizer evaluation in a new
process pays:

* the PM pass share of one synthesis run on cordic and ``gen:large:1``,
  without and with verify;
* the engine-build share of one ``sim_power`` optimizer evaluation;
* the verify stage time with ``sim_backend="auto"`` vs ``"compiled"``;
* library vector generation vs the vectorized engine run at 65536
  vectors (why ``mc_power`` feeds NumPy-generated input).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import FlowConfig, Pipeline  # noqa: E402
from repro.circuits import build  # noqa: E402
from repro.opt.evaluate import Evaluator  # noqa: E402
from repro.opt.space import SearchSpace  # noqa: E402
from repro.power.simulated import measure_power  # noqa: E402
from repro.sched.timing import critical_path_length  # noqa: E402
from repro.sim.backend import create_engine  # noqa: E402
from repro.sim.vectors import array_random_vectors  # noqa: E402
from repro.sim.engine import clear_compile_caches  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import install_flow_tracing, seeded  # noqa: E402


def traced(fn, repeat: int) -> dict:
    """Span summary of the fastest of ``repeat`` traced calls."""
    best = None
    for _ in range(repeat):
        clear_compile_caches()
        tracer = Tracer()
        install_flow_tracing(tracer)
        tracer.enabled = True
        try:
            with tracer.span("op"):
                fn()
        finally:
            tracer.enabled = False
            tracer.unpatch()
        summary = tracer.summary()
        if best is None or summary["op"]["ms"] < best["op"]["ms"]:
            best = summary
    return best


def share(summary: dict, span: str) -> str:
    ms = summary.get(span, {}).get("ms", 0.0)
    return f"{ms:.1f} of {summary['op']['ms']:.1f} ms " \
           f"({100 * ms / summary['op']['ms']:.0f}%)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    for name, budget in (("cordic", 40), ("gen:large:1", None)):
        graph = build(name)
        steps = budget or critical_path_length(graph)
        for verify in (False, True):
            summary = traced(lambda: Pipeline().run(
                graph.copy(), FlowConfig(n_steps=steps, verify=verify)),
                args.repeat)
            print(f"synthesize {name}@{steps} verify={verify}: PM pass "
                  f"{share(summary, 'core.pm_pass')}, engine builds "
                  f"{share(summary, 'sim.build')}")

    graph = build("gen:large:1")
    cp = critical_path_length(graph)
    candidate = SearchSpace.for_graph(graph, budgets=[cp, cp + 1]) \
        .random_candidate(seeded(1, "probe"))
    summary = traced(lambda: Evaluator(graph, "sim_power").evaluate(
        candidate), args.repeat)
    print(f"sim_power evaluation gen:large:1: engine builds "
          f"{share(summary, 'sim.build')} over "
          f"{summary['sim.build']['calls']:.0f} builds, engine runs "
          f"{share(summary, 'sim.run')}")

    for name in ("cordic", "gen:large:1", "vender"):
        graph = build(name)
        steps = critical_path_length(graph)
        row = []
        for backend in ("auto", "compiled"):
            best = float("inf")
            for _ in range(args.repeat):
                clear_compile_caches()
                ctx = Pipeline().run_context(graph.copy(), FlowConfig(
                    n_steps=steps, verify=True, sim_backend=backend))
                best = min(best, ctx.stage_seconds["verify"])
            row.append(f"{backend} {best * 1e3:.1f} ms")
        print(f"verify stage {name}@{steps}: {', '.join(row)}")

    graph = build("cordic")
    steps = critical_path_length(graph)
    design = Pipeline().run(graph, FlowConfig(n_steps=steps)).design
    gen = run = float("inf")
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        matrix = array_random_vectors(graph, 1 << 16, width=design.width)
        t1 = time.perf_counter()
        engine = create_engine(design, backend="vectorized")
        t2 = time.perf_counter()
        measure_power(design, vectors=matrix, engine=engine)
        gen = min(gen, t1 - t0)
        run = min(run, time.perf_counter() - t2)
    print(f"cordic@{steps}, 65536 vectors: array_random_vectors "
          f"{gen * 1e3:.0f} ms, vectorized measure_power {run * 1e3:.0f} ms")


if __name__ == "__main__":
    started = time.perf_counter()
    main()
    print(f"({time.perf_counter() - started:.1f} s)")
