"""The benchmark's four workloads.

Each workload is closed loop: one caller issues an op, waits for its
reply, then issues the next.  Op ``k`` is a pure function of the
benchmark seed and ``k`` (``prepare``), so a run of whole cycles always
holds the same mix of ops, and a traced pass over ops ``0..n-1`` repeats
its counts exactly.  The program's own caches (the engines'
fingerprint-keyed compile caches, an optimizer evaluator's stage cache)
stay warm across ops, as in a long-lived caller; ``reset`` returns a
workload to its just-set-up state before the second pass of a traced
run.

See README.md in this directory for why each workload exists and which
end-to-end metric each layer should move.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import random
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Verify stage vectors per power-management mode, times the two modes.
VERIFY_VECTORS = 2 * 16
#: ``sim_vectors`` of every served explore job (baseline + managed each).
SERVE_SIM_VECTORS = 16
SERVE_BUDGETS = 3
#: Bound on each wait while stopping the server and its pool worker.
STOP_TIMEOUT_S = 10.0


@dataclass
class OpResult:
    """What ``run.py`` records about one op besides its latency."""

    ok: bool = True
    vectors: int = 0
    #: Seconds from op start to its first result; ``None`` means the
    #: op's only result arrives when it returns.
    first_result_s: float | None = None


def seeded(seed: int, *parts: object) -> random.Random:
    """A ``Random`` keyed by the seed and a label (string seeds hash with
    SHA-512, so streams do not depend on ``PYTHONHASHSEED``)."""
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def slack_steps(cp: int) -> int:
    """Largest slack the mixes add over a critical path: ceil(cp / 4)."""
    return math.ceil(cp / 4)


def join_children(timeout: float) -> None:
    """Wait for every child process (server pool workers) to end."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)


class Workload:
    """One named workload: set-up, deterministic ops and output checks."""

    name = ""
    cycle_len = 1
    #: Whole cycles of ops per traced pass, per 10 s of ``--seconds``.
    trace_cycles_per_10s = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.failures: list[str] = []

    def setup(self) -> None:
        """Generate inputs, build state, run one warm-up op."""

    def prepare(self, k: int):
        """Inputs of op ``k`` (untimed)."""
        raise NotImplementedError

    def op(self, inputs) -> OpResult:
        raise NotImplementedError

    def label(self, k: int) -> str:
        """Which kind of op ``k`` is (per-label latency breakdowns)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the just-set-up state (before a second pass)."""

    def post_checks(self) -> int:
        """Sampled checks run after the timed loop; returns failures."""
        return 0

    def install_tracing(self, tracer) -> None:
        """Wrap the layer entry points this workload reaches."""

    def store_entries(self) -> int:
        """Entries in the workload's artifact store (0 when it has none)."""
        return 0

    def close(self) -> None:
        pass

    def fail(self, message: str) -> OpResult:
        self.failures.append(message)
        return OpResult(ok=False)


def install_flow_tracing(tracer) -> None:
    """Spans around every in-process layer of the synthesis flow."""
    from importlib import import_module

    from repro.ir.graph import CDFG
    from repro.pipeline.engine import Pipeline

    # import_module, not ``import a.b as m``: some packages re-export a
    # function under its module's name (repro.analysis.verify_gating).
    (fu_binding, register_alloc, verify_gating, pm_pass, evaluate, registry,
     simulated, design, backend, engine, reference, vectors, vectorized) = (
        import_module(f"repro.{name}") for name in (
            "alloc.fu_binding", "alloc.register_alloc",
            "analysis.verify_gating", "core.pm_pass", "opt.evaluate",
            "pipeline.registry", "power.simulated", "rtl.design",
            "sim.backend", "sim.engine", "sim.reference", "sim.vectors",
            "sim.vectorized"))

    def pm_attrs(args, kwargs, result):
        return {"considered": len(result.decisions),
                "managed": result.managed_count}

    def build_attrs(args, kwargs, result):
        return {"backend." + str(result.chosen_backend): 1}

    def run_attrs(args, kwargs, result):
        samples = getattr(result, "samples", None)
        if samples is None:  # run_many's (outputs, activity) tuple
            samples = len(result[0])
        return {"vectors": samples}

    #: Per evaluator id: its ``EvalStats`` object and the totals after
    #: its previous call.  Holding the stats object tells a later
    #: evaluator that reuses a dropped one's id from the old one.
    last_stats: dict[int, tuple[object, int, int]] = {}

    def eval_attrs(args, kwargs, result):
        stats = args[0].stats
        seen, computed, memo_hits = last_stats.get(id(args[0]),
                                                   (None, 0, 0))
        if seen is not stats:
            computed = memo_hits = 0
        last_stats[id(args[0])] = (stats, stats.computed, stats.memo_hits)
        return {"fresh": stats.computed - computed,
                "memo_hits": stats.memo_hits - memo_hits}

    def pipeline_attrs(args, kwargs, result):
        return {"stage_cache_hits": len(result.cache_hits)}

    tracer.patch_function(pm_pass, "apply_power_management", "core.pm_pass",
                          pm_attrs)
    original_get = registry.get_scheduler

    def traced_get_scheduler(name):
        return tracer.wrap(original_get(name), "sched.schedule")

    tracer.patch_everywhere(registry, "get_scheduler", traced_get_scheduler)
    tracer.patch_function(fu_binding, "bind_operations", "alloc.allocate")
    tracer.patch_function(register_alloc, "allocate_registers",
                          "alloc.allocate")
    tracer.patch_function(design, "elaborate", "rtl.elaborate")
    tracer.patch_function(verify_gating, "verify_gating",
                          "analysis.verify_gating")
    tracer.patch_function(backend, "create_engine", "sim.build", build_attrs)
    for cls in (engine.CompiledEngine, vectorized.VectorizedEngine):
        for method in ("run_batch", "run_many", "run_array"):
            if method in cls.__dict__:
                tracer.patch_method(cls, method, "sim.run", run_attrs)
    tracer.patch_function(reference, "evaluate", "sim.reference")
    tracer.patch_function(vectors, "random_vectors", "sim.vector_gen")
    tracer.patch_function(vectors, "array_random_vectors", "sim.vector_gen")
    tracer.patch_function(simulated, "measure_power", "power.measure")
    tracer.patch_method(evaluate.Evaluator, "evaluate", "opt.evaluate",
                        eval_attrs)
    tracer.patch_method(Pipeline, "run_context", "pipeline.run",
                        pipeline_attrs)
    tracer.patch_method(CDFG, "topological_order", "ir.topological_order")
    tracer.patch_method(CDFG, "add_control_edge", "ir.add_control_edge")


# -- synth_mix ---------------------------------------------------------------

#: Named slots.  cordic takes 3 of the 21, so the p90 falls in the
#: middle of the cordic cluster rather than on one of its edges.  The
#: small named circuits (the paper's dealer, gcd and vender, and
#: chstone:mips) take as many slots as the generated ones and cordic
#: together, so the p50 falls among chstone:adpcm and chstone:jpeg,
#: whose cost does not change with the seed.
SYNTH_FIXED = ("dealer", "dealer", "gcd", "gcd", "vender", "vender",
               "chstone:mips", "chstone:mips",
               "chstone:adpcm", "chstone:adpcm",
               "chstone:jpeg", "chstone:jpeg", "cordic", "cordic", "cordic")
#: Generated slots, each cycling through ``POOL`` seeded family members.
SYNTH_GEN = ("large", "large", "branchy", "branchy", "deep", "deep")
#: Seeded circuits per generated slot; op ``k`` of a slot takes member
#: ``(k // cycle_len) % POOL``, so a run averages over many circuits.
POOL = 3


def circuit_pools(seed: int, label: str, fixed, presets) -> list[list]:
    """One pool per slot, in seeded order: a fixed circuit alone, or
    ``POOL`` seeded ``gen:<preset>:<n>`` members; entries are
    ``(name, graph, critical_path)``."""
    from repro.circuits import build
    from repro.sched.timing import critical_path_length

    rng = seeded(seed, label)
    names = [[name] for name in fixed] + [
        [f"gen:{preset}:{rng.randrange(1_000_000)}" for _ in range(POOL)]
        for preset in presets]
    rng.shuffle(names)
    built: dict[str, tuple] = {}
    for name in sorted({n for pool in names for n in pool}):
        graph = build(name)
        built[name] = (name, graph, critical_path_length(graph))
    return [[built[name] for name in pool] for pool in names]


def design_digest(result) -> str:
    """Managed MUXes, schedule and area of one synthesis, hashed."""
    payload = {
        "managed": sorted(result.pm.selected_muxes),
        "start": sorted(result.schedule.start.items()),
        "area": result.design.area().total,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def golden_table() -> dict[str, str]:
    """Digest of every named member at every budget the mix can draw."""
    from repro import FlowConfig, Pipeline
    from repro.circuits import build
    from repro.sched.timing import critical_path_length

    table = {}
    for name in sorted(set(SYNTH_FIXED)):
        graph = build(name)
        cp = critical_path_length(graph)
        for budget in range(cp, cp + slack_steps(cp) + 1):
            result = Pipeline().run(graph.copy(),
                                    FlowConfig(n_steps=budget, verify=True))
            table[f"{name}@{budget}"] = design_digest(result)
    return table


class SynthMix(Workload):
    """``Pipeline().run(graph, FlowConfig(..., verify=True))``, no cache."""

    name = "synth_mix"
    cycle_len = len(SYNTH_FIXED) + len(SYNTH_GEN)
    trace_cycles_per_10s = 2

    def setup(self) -> None:
        from repro.circuits import build
        from repro.sched.timing import critical_path_length

        self.pools = circuit_pools(self.seed, self.name, SYNTH_FIXED,
                                   SYNTH_GEN)
        self.golden = json.loads(GOLDEN_PATH.read_text())
        self.digests: dict[str, str] = {}
        warm = build("gcd")
        self.op(("gcd", warm, critical_path_length(warm)))
        self.reset()

    def reset(self) -> None:
        from repro.sim.engine import clear_compile_caches

        # Each pass starts with cold engine compile caches, so the traced
        # pass does not find the untraced pass's engines compiled.
        clear_compile_caches()

    def member(self, k: int) -> tuple:
        pool = self.pools[k % self.cycle_len]
        return pool[(k // self.cycle_len) % len(pool)]

    def prepare(self, k: int):
        name, graph, cp = self.member(k)
        slack = seeded(self.seed, self.name, "slack", k).randint(
            0, slack_steps(cp))
        return name, graph, cp + slack

    def label(self, k: int) -> str:
        return self.member(k)[0]

    def op(self, inputs) -> OpResult:
        from repro import FlowConfig, Pipeline

        name, graph, budget = inputs
        result = Pipeline().run(graph.copy(),
                                FlowConfig(n_steps=budget, verify=True))
        return self.check_digest(f"{name}@{budget}", result)

    def check_digest(self, key: str, result) -> OpResult:
        digest = design_digest(result)
        expected = self.golden.get(key, self.digests.setdefault(key, digest))
        if digest != expected:
            return self.fail(f"{key}: digest {digest} != {expected}")
        return OpResult(vectors=VERIFY_VECTORS)

    def install_tracing(self, tracer) -> None:
        install_flow_tracing(tracer)


# -- opt_sim_power -----------------------------------------------------------

OPT_PRESETS = ("branchy",) * 9 + ("large",) * 6
OPT_SIM_VECTORS = 128
OPT_SAMPLED_CHECKS = 3
#: Cycles one slot's circuit and evaluator serve before the slot moves
#: on to a new seeded circuit (a search of this many evaluations each).
OPT_SEARCH_CYCLES = 5


class OptSimPower(Workload):
    """``Evaluator(objective="sim_power")`` searches, one per slot at a
    time: each slot's seeded circuit gets one evaluator, kept for its
    ``OPT_SEARCH_CYCLES`` evaluations as a search keeps it, then the
    slot moves on to a new circuit.  Each op evaluates a distinct
    candidate, so it is one computed (not memoized) evaluation."""

    name = "opt_sim_power"
    cycle_len = len(OPT_PRESETS)
    #: One whole search per slot at ``--seconds 25``.
    trace_cycles_per_10s = 2

    def setup(self) -> None:
        self.sampled = set(seeded(self.seed, self.name, "sample").sample(
            range(self.cycle_len), OPT_SAMPLED_CHECKS))
        self.reset()
        search = self.search(-1, 0)  # a warm-up search outside the slots
        self.op((-1, search, search["space"].random_candidate(
            seeded(self.seed, "warm-up"))))
        self.reset()

    def reset(self) -> None:
        from repro.sim.engine import clear_compile_caches

        # Fresh searches and cold engine compile caches, so a second
        # pass does what the first did.
        self.searches: dict[int, dict] = {}
        clear_compile_caches()
        self.samples: list[tuple[int, object, float]] = []

    def search(self, slot: int, number: int) -> dict:
        """Search ``number`` of ``slot``: its circuit, space, evaluator
        and the candidates it has evaluated.  A slot's previous search is
        dropped when the next one starts."""
        from repro.circuits import build
        from repro.opt.evaluate import Evaluator
        from repro.opt.space import SearchSpace
        from repro.sched.timing import critical_path_length

        current = self.searches.get(slot)
        if current is None or current["number"] != number:
            preset = OPT_PRESETS[slot]
            n = seeded(self.seed, self.name, slot, number).randrange(
                1_000_000)
            graph = build(f"gen:{preset}:{n}")
            cp = critical_path_length(graph)
            current = self.searches[slot] = {
                "number": number, "graph": graph, "seen": set(),
                "space": SearchSpace.for_graph(
                    graph, budgets=range(cp, cp + slack_steps(cp) + 1)),
                "evaluator": Evaluator(graph, "sim_power",
                                       sim_vectors=OPT_SIM_VECTORS)}
        return current

    def prepare(self, k: int):
        search = self.search(k % self.cycle_len,
                             k // (self.cycle_len * OPT_SEARCH_CYCLES))
        rng = seeded(self.seed, self.name, "candidate", k)
        for _ in range(20):  # distinct unless the space is nearly spent
            candidate = search["space"].random_candidate(rng)
            if candidate.key() not in search["seen"]:
                break
        search["seen"].add(candidate.key())
        return k, search, candidate

    def label(self, k: int) -> str:
        return "gen:" + OPT_PRESETS[k % self.cycle_len]

    def op(self, inputs) -> OpResult:
        k, search, candidate = inputs
        _score, metrics = search["evaluator"].evaluate(candidate)
        if k in self.sampled:
            self.samples.append((k, (search["graph"], candidate),
                                 metrics["sim_power"]))
        return OpResult(vectors=2 * OPT_SIM_VECTORS)

    def post_checks(self) -> int:
        """Sampled evaluations recompute to the same ``sim_power`` on the
        compiled backend."""
        from repro import FlowConfig, Pipeline
        from repro.core.pm_pass import PMOptions
        from repro.power.simulated import compare_designs

        failed = 0
        for k, (graph, candidate), sim_power in self.samples:
            config = FlowConfig(n_steps=candidate.n_steps,
                                pm=candidate.pm_options(PMOptions()),
                                scheduler=candidate.scheduler, label="opt")
            managed = Pipeline().run(graph, config)
            baseline = Pipeline().run(graph, config.baseline())
            again = compare_designs(baseline.design, managed.design,
                                    n_vectors=OPT_SIM_VECTORS,
                                    backend="compiled").reduction_pct
            if float(again) != sim_power:
                self.failures.append(
                    f"op {k}: sim_power {sim_power} != compiled {again}")
                failed += 1
        return failed

    def install_tracing(self, tracer) -> None:
        install_flow_tracing(tracer)


# -- mc_power ----------------------------------------------------------------

MC_CIRCUITS = ("cordic", "vender", "chstone:adpcm")
#: log2 batch-size bands covering 256 .. 65536 vectors.
MC_BANDS = ((8.0, 9.6), (9.6, 11.2), (11.2, 12.8), (12.8, 14.4),
            (14.4, 16.0))
#: Bands small enough for the compiled backend in the sampled check.
MC_CHECK_BANDS = 3
MC_SAMPLED_CHECKS = 3


class McPower(Workload):
    """``create_engine(design, backend="auto")`` + ``measure_power``.

    The designs and their engines' compile caches are built during
    set-up (one warm-up estimate per design and PM mode), so the timed
    ops are dominated by engine runs.
    """

    name = "mc_power"
    cycle_len = len(MC_CIRCUITS) * len(MC_BANDS)
    trace_cycles_per_10s = 2

    def setup(self) -> None:
        from repro import FlowConfig, Pipeline
        from repro.circuits import build
        from repro.sched.timing import critical_path_length

        self.designs = []
        for name in MC_CIRCUITS:
            graph = build(name)
            cp = critical_path_length(graph)
            self.designs.append(Pipeline().run(
                graph, FlowConfig(n_steps=cp + slack_steps(cp))).design)
        rng = seeded(self.seed, self.name)
        self.combos = [(d, b) for d in range(len(self.designs))
                       for b in range(len(MC_BANDS))]
        rng.shuffle(self.combos)
        small = [i for i, (_d, b) in enumerate(self.combos)
                 if b < MC_CHECK_BANDS]
        self.sampled = set(rng.sample(small, MC_SAMPLED_CHECKS))
        warm = seeded(self.seed, "warm-up")
        for design in self.designs:
            for pm in (True, False):
                self.op((-1, design, pm,
                         self.input_matrix(design, 256, warm)))
        self.reset()

    def reset(self) -> None:
        self.samples: list[tuple[int, object, bool, object, object]] = []

    @staticmethod
    def input_matrix(design, batch: int, rng):
        """``batch`` uniform random input rows in the design's width."""
        import numpy as np

        lo = -(1 << (design.width - 1))
        hi = (1 << (design.width - 1)) - 1
        return np.random.default_rng(rng.randrange(1 << 63)).integers(
            lo, hi, size=(batch, len(list(design.graph.inputs()))),
            endpoint=True, dtype=np.int64)

    def prepare(self, k: int):
        d, band = self.combos[k % self.cycle_len]
        rng = seeded(self.seed, self.name, "op", k)
        lo, hi = MC_BANDS[band]
        batch = min(1 << 16, max(1 << 8, int(2 ** rng.uniform(lo, hi))))
        pm = rng.random() < 0.5
        design = self.designs[d]
        return k, design, pm, self.input_matrix(design, batch, rng)

    def label(self, k: int) -> str:
        d, band = self.combos[k % self.cycle_len]
        return f"{MC_CIRCUITS[d]}/band{band}"

    def op(self, inputs) -> OpResult:
        from repro.power.simulated import measure_power
        from repro.sim.backend import create_engine

        k, design, pm, matrix = inputs
        engine = create_engine(design, power_management=pm, backend="auto")
        power = measure_power(design, vectors=matrix, power_management=pm,
                              engine=engine)
        if k in self.sampled:
            self.samples.append((k, design, pm, matrix, power))
        return OpResult(vectors=int(matrix.shape[0]))

    def post_checks(self) -> int:
        """Sampled estimates are bit-identical on compiled and
        vectorized engines."""
        from repro.power.simulated import measure_power

        failed = 0
        for k, design, pm, matrix, power in self.samples:
            for backend in ("compiled", "vectorized"):
                again = measure_power(design, vectors=matrix,
                                      power_management=pm, backend=backend)
                if again != power:
                    self.failures.append(
                        f"op {k}: {backend} estimate differs from auto")
                    failed += 1
        return failed

    def install_tracing(self, tracer) -> None:
        install_flow_tracing(tracer)


# -- serve_explore -----------------------------------------------------------


class ServeExplore(Workload):
    """Explore jobs through one ``start_in_thread`` server, SSE to the end.

    Ops cycle fresh ``gen:small``, fresh ``gen:medium``, resubmission of
    an earlier job (which resumes every point from the journal).
    """

    name = "serve_explore"
    cycle_len = 3
    trace_cycles_per_10s = 12

    def setup(self) -> None:
        from repro.serve import ServeClient, start_in_thread

        self.gen_base = seeded(self.seed, self.name).randrange(1_000_000)
        self.state = self.out_dir / f"serve-{uuid.uuid4().hex[:8]}"
        self.handle = start_in_thread(self.state, workers=1)
        self.client = ServeClient(port=self.handle.port)
        self.tracer = None
        self.done: list[dict] = []
        #: First fresh job of each preset: (params, its point events).
        self.samples: dict[str, tuple[dict, list[dict]]] = {}
        self.op(self.fresh("small", -1))

    def reset(self) -> None:
        self.close()
        self.setup()

    def fresh(self, preset: str, k: int) -> tuple[dict, bool]:
        from repro.circuits import build
        from repro.sched.timing import critical_path_length

        circuit = f"gen:{preset}:{self.gen_base + k + 1}"
        cp = critical_path_length(build(circuit))
        params = {"circuits": [circuit],
                  "budgets": list(range(cp, cp + SERVE_BUDGETS)),
                  "sim_vectors": SERVE_SIM_VECTORS}
        return params, False

    def prepare(self, k: int):
        slot = k % self.cycle_len
        if slot < 2:
            return self.fresh(("small", "medium")[slot], k)
        rng = seeded(self.seed, self.name, "resubmit", k)
        return self.done[rng.randrange(len(self.done))], True

    def label(self, k: int) -> str:
        return ("fresh-small", "fresh-medium", "resubmit")[k % 3]

    def op(self, inputs) -> OpResult:
        params, resubmit = inputs
        t0 = time.perf_counter_ns()
        job = self.client.submit("explore", **params)
        t_submit = time.perf_counter_ns()
        t_running = t_first = t_last = t_end = None
        points: list[dict] = []
        computed = gaps = store_hits = store_misses = 0
        state = None
        for event in self.client.stream(job["id"], timeout=120):
            now = time.perf_counter_ns()
            kind = event.get("type")
            if kind == "state":
                state = event.get("state")
                if state == "running" and t_running is None:
                    t_running = now
                elif state in ("done", "failed", "cancelled"):
                    t_end = now
            elif kind == "point":
                t_first = t_first or now
                t_last = now
                points.append(event["point"])
                if not event.get("resumed"):
                    computed += 1
                    store_hits += event["point"].get("store_hits", 0)
                    store_misses += event["point"].get("store_misses", 0)
            elif kind == "gap":
                gaps += 1
        first = (t_first - t0) / 1e9 if t_first is not None else None
        if self.tracer is not None and t_end is not None:
            # Consecutive phases of one job, as the client observed them.
            t_running = t_running or t_submit
            t_first = t_first or t_end
            record = self.tracer.record
            job_span = record("serve.job", t0, t_end, {
                "points_computed": computed,
                "points_resumed": len(points) - computed,
                "store_hits": store_hits, "store_misses": store_misses,
                "gap_events": gaps})
            for phase, start, end in (
                    ("serve.submit", t0, t_submit),
                    ("serve.queue_wait", t_submit, t_running),
                    ("serve.first_point", t_running, t_first),
                    ("serve.points", t_first, t_last or t_end),
                    ("serve.finish", t_last or t_end, t_end)):
                record(phase, start, end, parent=job_span)
        expected = len(params["circuits"]) * len(params["budgets"])
        if state != "done":
            return self.fail(f"job {job['id']} ended {state}")
        if len(points) != expected:
            return self.fail(
                f"job {job['id']}: {len(points)} points, expected {expected}")
        if resubmit and computed:
            return self.fail(
                f"resubmitted job {job['id']} recomputed {computed} points")
        if not resubmit:
            self.done.append(params)
            preset = params["circuits"][0].split(":")[1]
            self.samples.setdefault(preset, (params, points))
        return OpResult(vectors=computed * 2 * SERVE_SIM_VECTORS,
                        first_result_s=first)

    def post_checks(self) -> int:
        """Sampled served points equal an in-process ``explore()``."""
        from repro import FlowConfig, explore

        ignored = {"cache_hits", "cache_misses", "store_hits",
                   "store_misses"}
        failed = 0
        for params, points in self.samples.values():
            local = explore(params["circuits"], params["budgets"],
                            configs=[FlowConfig(label="serve")],
                            sim_vectors=params["sim_vectors"])
            want = [{k: v for k, v in p.to_dict().items() if k not in ignored}
                    for p in local.points]
            got = [{k: v for k, v in p.items() if k not in ignored}
                   for p in sorted(points, key=lambda p: p["n_steps"])]
            if json.loads(json.dumps(want)) != got:
                self.failures.append(
                    f"served {params['circuits']} differs from explore()")
                failed += 1
        return failed

    def store_entries(self) -> int:
        return self.client.stats()["store"]["entries"]

    def install_tracing(self, tracer) -> None:
        self.tracer = tracer

    def close(self) -> None:
        try:
            # Let the last job's task finish its queue write first: a
            # stop issued right after a terminal event occasionally
            # hung the server's shutdown until the join timed out.
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while (self.client.stats()["active"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            self.client.close()
            self.handle.stop(timeout=STOP_TIMEOUT_S)
            join_children(STOP_TIMEOUT_S)
            shutil.rmtree(self.state, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (SynthMix, OptSimPower, McPower,
                                       ServeExplore)}
