"""Simulation-backend benchmark: interpreter vs compiled vs vectorized.

Times the simulation backends on each benchmark circuit and emits
``BENCH_sim.json`` at the repo root so the speedup trajectory is tracked
across PRs:

* ``interpreter`` — the legacy :class:`RTLSimulator` oracle, timed on a
  reduced vector count (it is ~3 orders of magnitude off the pace on
  large batches) and normalized per vector;
* ``compiled`` — :class:`CompiledEngine`, generated straight-line Python
  per vector, timed on the full batch;
* ``vectorized`` — :class:`VectorizedEngine`, generated NumPy array
  programs per block, timed on the same batch fed as one pre-generated
  input matrix.

Each circuit's engine comes from ``create_engine(backend="auto")``; the
row records what it resolved to in ``auto``.  The circuit set includes
one row beyond the paper suite: ``recurrent`` —
:func:`repro.circuits.extra.gated_recurrence`, the pinned Hypothesis
circuit whose guarded state forms a cross-vector recurrence.  The
vectorized engine refuses it, so ``auto`` must resolve to compiled
there and it has no vectorized timing row.

Every circuit row carries ``identical``: the ``auto`` engine must agree
bit-for-bit (outputs + full ActivityCounter) with the compiled engine on
the full batch, and the compiled engine with the interpreter on the
reduced batch.

Usage::

    python benchmarks/bench_sim.py            # full run (4096-vector batches)
    python benchmarks/bench_sim.py --smoke    # CI-fast run (256 vectors)

A full run writes ``BENCH_sim.json`` (or ``--out``); a smoke run writes
only when ``--out`` is given, so it never overwrites the committed
full-mode numbers.

Exits nonzero if any backend diverges, if ``auto`` resolves to another
engine than expected, or if the vectorized-over-compiled speedup falls
below ``--min-speedup`` (default 5x) on a vectorized circuit.  Under
``--smoke`` the perf floors are advisory — millisecond-scale timings on
shared CI runners are too noisy for a hard gate — while the equality
checks stay fatal.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.circuits import build  # noqa: E402
from repro.circuits.extra import gated_recurrence  # noqa: E402
from repro.pipeline import FlowConfig, run_pair  # noqa: E402
from repro.sched.timing import critical_path_length  # noqa: E402
from repro.sim.backend import create_engine  # noqa: E402
from repro.sim.engine import CompiledEngine  # noqa: E402
from repro.sim.simulator import RTLSimulator  # noqa: E402
from repro.sim.vectors import random_vectors, vectors_to_array  # noqa: E402

# Circuit -> step budget; cordic is the largest circuit (Table I: 152
# ops); None means critical path + 1 (the PM-friendly minimum slack).
FULL_CIRCUITS = {"dealer": 6, "gcd": 7, "vender": 6, "cordic": 48,
                 "recurrent": None}
# Smoke keeps two paper circuits plus the recurrent row so CI always
# exercises the auto fallback.
SMOKE_CIRCUITS = {"dealer": 6, "gcd": 7, "recurrent": None}
# The engine ``auto`` must resolve to; every other circuit vectorizes.
EXPECTED_AUTO = {"recurrent": "compiled"}


def _graph(name):
    if name == "recurrent":
        return gated_recurrence()
    return build(name)


def _timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_circuit(name: str, steps: int | None, n_batch: int, n_interp: int,
                  repeats: int) -> dict[str, object]:
    graph = _graph(name)
    if steps is None:
        steps = critical_path_length(graph) + 1
    design = run_pair(graph, FlowConfig(n_steps=steps)).managed.design
    batch = random_vectors(graph, n_batch)
    small = batch[:n_interp]

    compile_start = time.perf_counter()
    compiled = CompiledEngine(design)
    compiled_build_s = time.perf_counter() - compile_start
    compile_start = time.perf_counter()
    engine = create_engine(design, backend="auto")
    auto_build_s = time.perf_counter() - compile_start

    interp_s = _timed(lambda: RTLSimulator(design).run_many(small), repeats)
    compiled_s = _timed(lambda: (compiled.reset(),
                                 compiled.run_batch(batch)), repeats)

    # Bit-identity: the auto engine == compiled on the full batch;
    # compiled == interpreter on the reduced batch.
    compiled.reset()
    cout, cact = compiled.run_many(batch)
    aout, aact = engine.run_many(batch)
    iout, iact = RTLSimulator(design).run_many(small)
    compiled.reset()
    sout, sact = compiled.run_many(small)
    identical = (cout == aout and cact == aact
                 and sout == iout and sact == iact)

    per_interp = interp_s / n_interp
    per_compiled = compiled_s / n_batch
    rows = [
        {"backend": "interpreter", "n_vectors": n_interp,
         "seconds": interp_s, "per_vector_us": per_interp * 1e6},
        {"backend": "compiled", "n_vectors": n_batch,
         "seconds": compiled_s, "per_vector_us": per_compiled * 1e6,
         "build_s": compiled_build_s,
         "speedup_vs_interpreter": per_interp / per_compiled},
    ]
    result = {
        "circuit": name,
        "n_steps": steps,
        "auto": engine.chosen_backend,
        "rows": rows,
        "identical": identical,
    }
    if engine.chosen_backend == "vectorized":
        matrix = vectors_to_array(batch, engine.input_names)
        vectorized_s = _timed(lambda: (engine.reset(),
                                       engine.run_array(matrix)), repeats)
        per_vectorized = vectorized_s / n_batch
        rows.append(
            {"backend": "vectorized", "n_vectors": n_batch,
             "seconds": vectorized_s, "per_vector_us": per_vectorized * 1e6,
             "build_s": auto_build_s,
             "speedup_vs_interpreter": per_interp / per_vectorized,
             "speedup_vs_compiled": compiled_s / vectorized_s})
        result["vectorized_speedup_over_compiled"] = \
            compiled_s / vectorized_s
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI subset: 256-vector batches, "
                             "dealer + gcd + recurrent; writes a report "
                             "only with --out")
    parser.add_argument("--vectors", type=int, default=None,
                        help="batch size (default 4096, smoke 256)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="fail if vectorized beats compiled by less "
                             "than this on vectorized circuits (default "
                             "5.0; advisory under --smoke)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default <repo>/BENCH_sim.json "
                             "for full runs; smoke runs write nothing "
                             "without it)")
    args = parser.parse_args(argv)

    circuits = SMOKE_CIRCUITS if args.smoke else FULL_CIRCUITS
    n_batch = args.vectors or (256 if args.smoke else 4096)
    n_interp = min(n_batch, 64 if args.smoke else 256)
    repeats = 3
    out_path = args.out
    if out_path is None and not args.smoke:
        out_path = Path(__file__).resolve().parent.parent / "BENCH_sim.json"

    results = [bench_circuit(name, steps, n_batch, n_interp, repeats)
               for name, steps in circuits.items()]
    report = {
        "bench": "sim_backends",
        "mode": "smoke" if args.smoke else "full",
        "n_vectors": n_batch,
        "min_speedup_required": args.min_speedup,
        "results": results,
        "min_vectorized_speedup_measured": min(
            r["vectorized_speedup_over_compiled"] for r in results
            if r["auto"] == "vectorized"),
    }
    if out_path is not None:
        out_path.write_text(json.dumps(report, indent=2) + "\n")

    header = (f"{'circuit':<10s} {'backend':<12s} {'vecs':>6s} "
              f"{'seconds':>9s} {'us/vec':>8s} {'vs interp':>9s} "
              f"{'vs compiled':>11s}")
    print(header)
    print("-" * len(header))
    for result in results:
        for row in result["rows"]:
            vs_i = row.get("speedup_vs_interpreter")
            vs_c = row.get("speedup_vs_compiled")
            print(f"{result['circuit']:<10s} {row['backend']:<12s} "
                  f"{row['n_vectors']:>6d} {row['seconds']:>9.4f} "
                  f"{row['per_vector_us']:>8.2f} "
                  f"{vs_i and f'{vs_i:8.1f}x' or '':>9s} "
                  f"{vs_c and f'{vs_c:10.1f}x' or '':>11s}")
        notes = [f"identical={result['identical']}",
                 f"auto={result['auto']}"]
        print(f"{'':10s} {'; '.join(notes)}")
    if out_path is not None:
        print(f"wrote {out_path}")

    failures = [r["circuit"] for r in results if not r["identical"]]
    if failures:
        print(f"FAIL: backends diverge on {failures}")
        return 1
    misrouted = [f"{r['circuit']} -> {r['auto']}" for r in results
                 if r["auto"] != EXPECTED_AUTO.get(r["circuit"],
                                                   "vectorized")]
    if misrouted:
        print(f"FAIL: auto resolved to an unexpected engine: {misrouted}")
        return 1
    slow = [r["circuit"] for r in results if r["auto"] == "vectorized"
            and r["vectorized_speedup_over_compiled"] < args.min_speedup]
    if slow:
        problem = f"vectorized speedup below {args.min_speedup}x on {slow}"
        if args.smoke:
            # Millisecond-scale smoke timings are noisy on shared CI
            # runners: the correctness gates above stay hard, the perf
            # floor is advisory here.
            print(f"WARN: {problem} (advisory in smoke mode)")
            return 0
        print(f"FAIL: {problem}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
