"""Layered end-to-end benchmark of the synthesis flow, optimizer,
Monte Carlo power estimation and the job server.

Run from the repository root::

    python3 perfbench/run.py --workload synth_mix --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``synth_mix``, ``opt_sim_power``, ``mc_power``
and ``serve_explore`` (see README.md here for what each stresses).
With ``--trace 0`` the run sets up ``SETUP_REPS`` times, then runs whole
cycles of closed-loop ops for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it runs a fixed window of ops twice, once
untraced and once with spans around every layer call, and reports the
per-layer metrics plus the tracing overhead; the spans go to
``.perfbench_out/``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the run (commit, Python, NumPy, host, nproc, seed).  The exit
code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: Reference duration of one ``Calibrator.measure()`` that time metrics
#: are scaled to.
CALIBRATION_REF_S = 0.006
#: The calibration task: ``calibrate()`` is the median of three timings
#: of dict, list and str churn (like the flow's own code).
CALIBRATION_TASK = """
import statistics, sys, time
def task():
    table = {}
    for i in range(20000):
        table[i % 997] = [i, str(i)]
    sorted(table.items())
def timing():
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0
def calibrate():
    return statistics.median(timing() for _ in range(3))
"""
#: Run in a child interpreter that imports nothing of the program: one
#: calibration per line read from stdin.
CALIBRATION_CODE = CALIBRATION_TASK + """
for _ in sys.stdin:
    print(repr(calibrate()), flush=True)
"""
#: The imports a run needs, timed in a fresh interpreter once a line
#: arrives on stdin (``argv[1]`` is the source directory), between two
#: calibrations in the same process.
IMPORT_CODE = CALIBRATION_TASK + """
sys.stdin.readline()
before = calibrate()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, repro, repro.opt.evaluate, repro.power.simulated
import repro.serve, repro.sim.vectorized
took = time.perf_counter() - t0
print(repr((took, before, calibrate())), flush=True)
"""

#: Per-layer metrics read off the span summary: (name, unit, span name,
#: summary field); each is divided by the number of traced ops.
LAYER_SPANS = (
    ("core.pm_pass_ms", "ms", "core.pm_pass", "ms"),
    ("core.pm_pass_self_ms", "ms", "core.pm_pass", "self_ms"),
    ("core.muxes_considered", "count", "core.pm_pass", "considered"),
    ("core.muxes_managed", "count", "core.pm_pass", "managed"),
    ("ir.topological_order_calls", "count", "ir.topological_order", "calls"),
    ("ir.topological_order_ms", "ms", "ir.topological_order", "ms"),
    ("ir.add_control_edge_calls", "count", "ir.add_control_edge", "calls"),
    ("sched.schedule_ms", "ms", "sched.schedule", "ms"),
    ("alloc.allocate_ms", "ms", "alloc.allocate", "ms"),
    ("rtl.elaborate_ms", "ms", "rtl.elaborate", "ms"),
    ("analysis.verify_gating_ms", "ms", "analysis.verify_gating", "ms"),
    ("sim.builds", "count", "sim.build", "calls"),
    ("sim.build_ms", "ms", "sim.build", "ms"),
    ("sim.run_ms", "ms", "sim.run", "ms"),
    ("sim.vectors", "count", "sim.run", "vectors"),
    ("sim.backend.compiled", "count", "sim.build", "backend.compiled"),
    ("sim.backend.vectorized", "count", "sim.build", "backend.vectorized"),
    ("sim.backend.packed", "count", "sim.build", "backend.packed"),
    ("sim.reference_ms", "ms", "sim.reference", "ms"),
    ("sim.vector_gen_ms", "ms", "sim.vector_gen", "ms"),
    ("power.measure_ms", "ms", "power.measure", "self_ms"),
    ("opt.evaluate_ms", "ms", "opt.evaluate", "ms"),
    ("opt.fresh_evaluations", "count", "opt.evaluate", "fresh"),
    ("opt.memo_hits", "count", "opt.evaluate", "memo_hits"),
    ("serve.submit_ms", "ms", "serve.submit", "ms"),
    ("serve.queue_wait_ms", "ms", "serve.queue_wait", "ms"),
    ("serve.first_point_ms", "ms", "serve.first_point", "ms"),
    ("serve.finish_ms", "ms", "serve.finish", "ms"),
    ("serve.points_computed", "count", "serve.job", "points_computed"),
    ("serve.points_resumed", "count", "serve.job", "points_resumed"),
    ("serve.store_hits", "count", "serve.job", "store_hits"),
    ("serve.store_misses", "count", "serve.job", "store_misses"),
    ("serve.gap_events", "count", "serve.job", "gap_events"),
    ("pipeline.self_ms", "ms", "pipeline.run", "self_ms"),
    ("pipeline.stage_cache_hits", "count", "pipeline.run",
     "stage_cache_hits"),
    ("op.unattributed_ms", "ms", "op", "self_ms"),
)


def stamp(seed: int) -> dict:
    """Where and on what this run was measured."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # a plain checkout without git metadata
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "host": platform.node(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "seed": seed}


def children_cpu_s() -> float:
    """CPU seconds used so far by live child processes (pool workers)."""
    total = 0
    for child in multiprocessing.active_children():
        with contextlib.suppress(OSError, IndexError, ValueError):
            fields = Path(f"/proc/{child.pid}/stat").read_text() \
                .rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    return total / CLOCK_TICKS


def children_peak_rss_mb() -> float:
    total = 0.0
    for child in multiprocessing.active_children():
        with contextlib.suppress(OSError, ValueError):
            for line in Path(f"/proc/{child.pid}/status").read_text() \
                    .splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024
    return total


class Calibrator:
    """Times a fixed interpreter-bound task in a child interpreter.

    Co-tenants of a shared host slow it by up to 1.8x for seconds to
    minutes at a time.  ``run.py`` times this task before and after each
    set-up and each cycle of ops, and reports that stretch's times scaled
    by ``CALIBRATION_REF_S`` over the mean of the two timings: times on
    a host where the task takes ``CALIBRATION_REF_S``.  The raw times go
    to the result file as well.  The task runs in its own process
    (``python -I``, no program imports), so nothing the program does to
    its own interpreter (hooks, GC settings, threads) is divided out.
    Before each timing the child is pinned to the CPU the benchmark's
    main thread last ran on: co-tenants slow one virtual CPU at a time,
    and a child timed on the other CPU tracks the benchmark's speed
    hardly better than no calibration.
    """

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-I", "-c", CALIBRATION_CODE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        pin_to_my_cpu(self.process.pid)
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def host_scale(before: float, after: float) -> float:
    """Factor turning times taken between two calibrations into times at
    the reference host speed."""
    return CALIBRATION_REF_S * 2.0 / (before + after)


def pin_to_my_cpu(pid: int) -> None:
    """Pin process ``pid`` to the CPU this thread last ran on."""
    with contextlib.suppress(OSError, IndexError, ValueError):
        stat = Path("/proc/thread-self/stat").read_text()
        os.sched_setaffinity(pid, {int(stat.rsplit(")", 1)[1].split()[36])})


def fresh_import_s() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import what a run imports,
    timed on this thread's CPU: raw, and scaled by the calibrations the
    interpreter made around the imports."""
    process = subprocess.Popen(
        [sys.executable, "-c", IMPORT_CODE, str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        pin_to_my_cpu(process.pid)
        out, _ = process.communicate("\n", timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    took, before, after = ast.literal_eval(out.strip().splitlines()[-1])
    return took, took * host_scale(before, after)


def cpu_now() -> float:
    return time.process_time() + children_cpu_s()


class Pass:
    """Outcome of one closed-loop pass over whole cycles of ops.

    ``scales`` holds each op's host-speed factor (its cycle's); the
    ``scaled_*`` totals sum each cycle's wall and CPU time times it.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.first_results: list[float] = []
        self.labels: list[str] = []
        self.scales: list[float] = []
        self.vectors = 0
        self.failed = 0
        self.wall_s = self.cpu_s = 0.0
        self.scaled_wall_s = self.scaled_cpu_s = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def time_metrics(self, scaled: bool) -> dict:
        scales = self.scales if scaled else [1.0] * self.ops
        wall, cpu = ((self.scaled_wall_s, self.scaled_cpu_s) if scaled
                     else (self.wall_s, self.cpu_s))
        lat = [t * s for t, s in zip(self.latencies, scales)]
        first = [t * s for t, s in zip(self.first_results, scales)]
        return {
            "ops_per_s": (self.ops / wall, "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "cpu_ms_per_op": (cpu / self.ops * 1e3, "ms"),
            "vectors_per_s": (self.vectors / wall, "1/s"),
            "first_result_p50_ms": (statistics.median(first) * 1e3, "ms"),
        }


def run_op(workload, k: int, result: Pass, tracer) -> tuple[float, float]:
    """Prepare and run op ``k``; returns the wall and CPU seconds its
    (unmeasured) preparation took."""
    prep_t0, prep_cpu0 = time.perf_counter(), time.process_time()
    if tracer is None:
        inputs = workload.prepare(k)
        scope = contextlib.nullcontext()
    else:
        with tracer.paused():
            inputs = workload.prepare(k)
        tracer.op_id = k
        scope = tracer.span("op")
    prep = (time.perf_counter() - prep_t0, time.process_time() - prep_cpu0)
    t0 = time.perf_counter()
    with scope:
        try:
            outcome = workload.op(inputs)
        except Exception as error:  # noqa: BLE001 - counted as failed
            traceback.print_exc(file=sys.stderr)
            outcome = workload.fail(
                f"op {k}: {type(error).__name__}: {error}")
    latency = time.perf_counter() - t0
    result.latencies.append(latency)
    result.first_results.append(
        outcome.first_result_s if outcome.first_result_s is not None
        else latency)
    result.labels.append(workload.label(k))
    result.vectors += outcome.vectors
    result.failed += not outcome.ok
    return prep


def run_pass(workload, calibrator, done, tracer=None) -> Pass:
    """Run whole cycles of ops ``k = 0, 1, ...`` until ``done(k,
    elapsed_s)`` at a cycle boundary; the host is calibrated between
    cycles, and the ops' preparation is taken out of the measured time."""
    result = Pass()
    before = calibrator.measure()
    k = 0
    while not done(k, result.wall_s):
        prep_wall = prep_cpu = 0.0
        start, cpu0 = time.perf_counter(), cpu_now()
        for k in range(k, k + workload.cycle_len):
            wall, cpu = run_op(workload, k, result, tracer)
            prep_wall += wall
            prep_cpu += cpu
        k += 1
        wall = time.perf_counter() - start - prep_wall
        cpu = cpu_now() - cpu0 - prep_cpu
        after = calibrator.measure()
        scale = host_scale(before, after)
        before = after
        result.scales += [scale] * workload.cycle_len
        result.wall_s += wall
        result.cpu_s += cpu
        result.scaled_wall_s += wall * scale
        result.scaled_cpu_s += cpu * scale
    return result


def by_label(run: Pass) -> dict[str, dict[str, float]]:
    """Op count and mean scaled latency per kind of op."""
    groups: dict[str, list[float]] = {}
    for label, latency, scale in zip(run.labels, run.latencies, run.scales):
        groups.setdefault(label, []).append(latency * scale)
    return {label: {"ops": len(lat), "mean_ms": statistics.fmean(lat) * 1e3}
            for label, lat in sorted(groups.items())}


def end_to_end(workload, args, calibrator, setup: dict,
               ) -> tuple[dict, dict, int, int]:
    timed = run_pass(workload, calibrator,
                     lambda _k, elapsed: elapsed >= args.seconds)
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            + children_peak_rss_mb(), "MB")
    failed = timed.failed + workload.post_checks()
    metrics = {"setup_s": (setup["scaled"], "s"),
               **timed.time_metrics(scaled=True), "peak_rss_mb": peak}
    raw = {"setup_s": (setup["raw"], "s"),
           **timed.time_metrics(scaled=False), "peak_rss_mb": peak}
    ops = [[label, latency * 1e3, scale] for label, latency, scale
           in zip(timed.labels, timed.latencies, timed.scales)]
    return metrics, {"raw_metrics": raw, "by_label": by_label(timed),
                     "ops": ops}, timed.ops, failed


def per_layer(workload, args, calibrator, out_stem: str,
              ) -> tuple[dict, dict, int, int]:
    from spans import END, ID, NAME, OP, START, Tracer

    cycles = max(1, round(args.seconds / 10 * workload.trace_cycles_per_10s))
    n_ops = cycles * workload.cycle_len
    plain = run_pass(workload, calibrator, lambda k, _elapsed: k >= n_ops)
    workload.reset()
    tracer = Tracer()
    workload.install_tracing(tracer)
    entries0 = workload.store_entries()
    tracer.enabled = True
    try:
        traced = run_pass(workload, calibrator,
                          lambda k, _elapsed: k >= n_ops, tracer)
    finally:
        tracer.enabled = False
        tracer.unpatch()
    store_entries = (workload.store_entries() - entries0) / n_ops
    failed = plain.failed + traced.failed + workload.post_checks()

    scales = dict(enumerate(traced.scales))
    summary = tracer.summary(scales)
    metrics = {}
    for name, unit, span, field in LAYER_SPANS:
        metrics[name] = (summary.get(span, {}).get(field, 0.0) / n_ops, unit)
    op_ms = summary["op"]["ms"]
    run_ms = summary.get("sim.run", {}).get("ms", 0.0)
    vectors = summary.get("sim.run", {}).get("vectors", 0.0)
    metrics["sim.run_ns_per_vector"] = (
        run_ms * 1e6 / vectors if vectors else 0.0, "ns")
    metrics["sim.build_share"] = (
        summary.get("sim.build", {}).get("ms", 0.0) / op_ms, "ratio")
    metrics["serve.store_entries"] = (store_entries, "count")
    untraced_rate = n_ops / plain.scaled_wall_s
    traced_rate = n_ops / traced.scaled_wall_s
    metrics["trace.ops"] = (float(n_ops), "count")
    metrics["trace.spans_per_op"] = (len(tracer.spans) / n_ops, "count")
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (
        (untraced_rate / traced_rate - 1.0) * 100.0, "%")

    tracer.write(OUT / f"{out_stem}.spans.jsonl")
    per_kind: dict[str, dict[str, float]] = {}
    own = tracer.self_ns()
    for span in tracer.spans:
        row = per_kind.setdefault(workload.label(span[OP]), {"ops": 0})
        row["ops"] += span[NAME] == "op"
        scale = scales[span[OP]]
        for key, ns in ((".ms", span[END] - span[START]),
                        (".self_ms", own[span[ID]])):
            row[span[NAME] + key] = (row.get(span[NAME] + key, 0.0)
                                     + ns * scale / 1e6)
    return metrics, {"by_label": per_kind, "summary": summary,
                     "raw_summary": tracer.summary()}, \
        plain.ops + traced.ops, failed


def set_up(cls, seed: int, calibrator):
    """Import and set the workload up ``SETUP_REPS`` times: each time the
    imports in a fresh interpreter, scaled by its own calibrations, then
    ``setup()``, scaled by the calibrations around it.  Returns the ``setup_s`` figures (the
    median), every repetition's times, and the last set-up's workload."""
    reps: dict[str, list[float]] = {"import": [], "raw": [], "scaled": []}
    workload = None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        imports, imports_scaled = fresh_import_s()
        before = calibrator.measure()
        workload = cls(seed, OUT)
        t0 = time.perf_counter()
        workload.setup()
        took = time.perf_counter() - t0
        after = calibrator.measure()
        reps["import"].append(imports)
        reps["raw"].append(imports + took)
        reps["scaled"].append(imports_scaled
                              + took * host_scale(before, after))
    setup = {key: statistics.median(reps[key]) for key in ("raw", "scaled")}
    return setup, reps, workload


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # This process's own import time goes to the result file; setup_s
    # times the same imports in fresh interpreters (see set_up).
    import numpy  # noqa: F401
    import repro  # noqa: F401
    import repro.opt.evaluate  # noqa: F401
    import repro.power.simulated  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sim.vectorized  # noqa: F401
    import workloads

    import_s = time.perf_counter() - started
    if args.write_golden:
        workloads.GOLDEN_PATH.write_text(
            json.dumps(workloads.golden_table(), indent=1, sort_keys=True)
            + "\n")
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    out_stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calibrator = Calibrator()
    try:
        setup, reps, workload = set_up(workloads.WORKLOADS[args.workload],
                                       args.seed, calibrator)
        try:
            if args.trace:
                metrics, extra, attempted, failed = per_layer(
                    workload, args, calibrator, out_stem)
            else:
                metrics, extra, attempted, failed = end_to_end(
                    workload, args, calibrator, setup)
        finally:
            workload.close()
    finally:
        calibrator.close()
    for message in workload.failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    info = stamp(args.seed)
    result = {"correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (OUT / f"{out_stem}.json").write_text(json.dumps(
        {"stamp": info, "workload": args.workload, "seconds": args.seconds,
         "setup_reps_s": reps, "import_s": import_s,
         "failures": workload.failures, **extra, **result}, indent=1))
    print(json.dumps({"stamp": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
