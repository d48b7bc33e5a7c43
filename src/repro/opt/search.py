"""Stochastic search drivers over the joint PM design space.

Four drivers move through the (MUX ordering, control-step budget,
scheduler) space of :mod:`repro.opt.space`, scoring candidates with a
shared cache-aware :class:`~repro.opt.evaluate.Evaluator`:

* :func:`anneal` — seeded simulated annealing with a restart schedule:
  restart 0 starts from the best built-in greedy ordering, later
  restarts from random candidates, each cooling geometrically;
* :func:`beam_search` — deterministic beam search over ordering
  *prefixes*: partial orders are scored by completing them with the
  remaining MUXes in savings order, and the ``beam_width`` best
  prefixes survive each depth;
* :func:`random_search` — the uniform-sampling baseline the other
  drivers are judged against;
* :func:`portfolio` — the island-model parallel driver: heterogeneous
  chains in worker processes with periodic elite migration.

Every driver first evaluates the built-in greedy strategies
(``output_first`` / ``input_first`` / ``savings``) at every (budget,
scheduler), so its result is **never worse than the best greedy
ordering** by construction.  Annealing chains, random sampling and
both island kinds all move through one loop, :func:`walk`.  Drivers
are deterministic per (arguments, seed): re-running one replays the
identical trajectory, which is what makes the journal-based resume
exact — an interrupted run re-launched with the same journal serves the
already-computed evaluations from disk and continues live from the
interruption point, producing the same :meth:`OptResult.outcome` as an
uninterrupted run.

Alongside the scalarized best, every driver maintains a
:class:`~repro.opt.archive.ParetoArchive` over the objective's metric
terms and attaches it to :attr:`OptResult.archive` — multi-term
objectives get the whole nondominated trade-off curve, not just the
weighted winner.

The portfolio runs in **rounds** (migration epochs), its unit of
determinism: the coordinator ships every island its chain state, a memo
snapshot and a ``migration_every`` move quota; each island walks its
chain in a worker process (:func:`run_island_round`) against the shared
store; the coordinator then merges the islands in index order (never
completion order), journals their fresh records through its one
writer, offers every visited candidate to the archive, and reseeds the
annealing islands from a *diverse* elite set
(:meth:`~repro.opt.archive.ParetoArchive.select`).  The outcome is a
pure function of (arguments, seed, islands); ``workers`` only decides
how many islands compute at once.

Budgets: ``time_budget=`` (seconds of wall clock) makes any driver
*anytime* — it stops with the best front found so far, and a longer
budget never returns a dominated front.  ``max_evaluations=`` caps
*fresh* computations.  The single-chain drivers raise
:class:`~repro.opt.evaluate.EvaluationBudgetExceeded` once it is spent,
leaving the journal ready for resumption; the portfolio splits it
across the islands each round and, like its time budget, stops at a
round boundary with the best front so far.
"""

from __future__ import annotations

import inspect
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping

from repro.ir.graph import CDFG
from repro.ir.serialize import graph_from_dict, graph_to_dict
from repro.opt.archive import ParetoArchive
from repro.opt.evaluate import EvaluationBudgetExceeded, Evaluator
from repro.opt.objective import Objective
from repro.opt.space import Candidate, SearchSpace


@dataclass(frozen=True)
class SearchSpec:
    """A portable description of one driver invocation (CLI / explore)."""

    driver: str = "anneal"
    objective: str = "gated_weight"
    iters: int = 150
    seed: int = 0
    restarts: int = 2
    beam_width: int = 4
    workers: int = 4                    #: portfolio only
    time_budget: "float | None" = None  #: anytime wall-clock cap, seconds


@dataclass(frozen=True)
class OptResult:
    """What one driver run found, plus where the answers came from.

    ``best_label`` names the winning candidate's origin: a greedy seed
    label (``output_first@7/list``-style) when no search move beat the
    seeds, ``"search"`` (or ``"island<k>"``) otherwise.  ``evaluations``
    / ``reused`` (split as ``memo_hits`` + ``store_hits``) / ``resumed``
    are run diagnostics and intentionally *not* part of :meth:`outcome`
    — a resumed run recomputes less but must find the same answer.
    ``archive`` is the run's Pareto front over the objective terms.
    """

    circuit: str
    driver: str
    objective: str
    seed: int
    best: Candidate
    best_score: float
    best_metrics: tuple[tuple[str, float], ...]
    best_label: str
    greedy_scores: tuple[tuple[str, float], ...]
    #: Best-score improvements as (driver step, score), step 0 = seeds.
    history: tuple[tuple[int, float], ...]
    evaluations: int
    reused: int
    resumed: int
    memo_hits: int = 0
    store_hits: int = 0
    archive: "ParetoArchive | None" = field(
        default=None, compare=False, repr=False)

    @property
    def metrics(self) -> dict[str, float]:
        return dict(self.best_metrics)

    @property
    def journal_replays(self) -> int:
        """Alias for ``resumed`` under its observable name."""
        return self.resumed

    @property
    def best_greedy_score(self) -> float:
        return max(score for _, score in self.greedy_scores)

    @property
    def improvement_over_greedy(self) -> float:
        """How far past the best built-in strategy the search got (>= 0)."""
        return self.best_score - self.best_greedy_score

    def outcome(self) -> dict[str, object]:
        """The resume-invariant search outcome (JSON-compatible).

        Identical for an uninterrupted run and any interrupt/resume
        split of it; this is what the golden regression pins.
        """
        outcome = {
            "circuit": self.circuit,
            "driver": self.driver,
            "objective": self.objective,
            "seed": self.seed,
            "order": list(self.best.order),
            "n_steps": self.best.n_steps,
            "scheduler": self.best.scheduler,
            "score": self.best_score,
            "metrics": dict(self.best_metrics),
            "best_label": self.best_label,
            "greedy_scores": dict(self.greedy_scores),
            "history": [list(step) for step in self.history],
        }
        if self.archive is not None:
            # The front is trajectory-determined, so resume-invariant;
            # the archive's reuse counters are not and stay out.
            outcome["pareto"] = [entry.to_dict()
                                 for entry in self.archive.front()]
        return outcome

    def flow_config(self, base=None):
        """A :class:`~repro.pipeline.FlowConfig` that synthesizes the
        chosen design (ordering pinned via PM strategy ``given``)."""
        from repro.pipeline.config import FlowConfig

        base = base if base is not None else FlowConfig()
        return replace(
            base, n_steps=self.best.n_steps, scheduler=self.best.scheduler,
            pm=self.best.pm_options(base.pm),
            label=f"{self.driver}[{self.objective}]")

    def table(self) -> str:
        lines = [f"{self.driver} on {self.circuit!r} "
                 f"(objective {self.objective}, seed {self.seed})"]
        for label, score in sorted(self.greedy_scores,
                                   key=lambda pair: -pair[1]):
            lines.append(f"  greedy {label:<28s} {score:10.4f}")
        lines.append(f"  best   {self.best_label:<28s} "
                     f"{self.best_score:10.4f}  "
                     f"(+{self.improvement_over_greedy:.4f} over greedy)")
        lines.append(
            f"  order {'>'.join(str(m) for m in self.best.order) or '-'} "
            f"@ {self.best.n_steps} steps / {self.best.scheduler}")
        lines.append(f"  {self.evaluations} evaluated, {self.reused} reused "
                     f"({self.memo_hits} memo, {self.store_hits} store)"
                     + (f", {self.journal_replays} resumed from journal"
                        if self.journal_replays else ""))
        if self.archive is not None and len(self.archive) > 1:
            lines.append(f"  pareto front: {len(self.archive)} points over "
                         f"{self.objective}")
        return "\n".join(lines)


class _Run:
    """Shared driver plumbing: space, evaluator, greedy seeds, best,
    archive, deadline and the assembled :class:`OptResult`."""

    def __init__(self, graph: CDFG, objective, n_steps, budgets, schedulers,
                 store, journal, max_evaluations, sim_vectors, pm_base,
                 progress=None, time_budget=None, durability="batch",
                 archive_size=None):
        self.graph = graph
        self.progress = progress
        self.objective = Objective.parse(objective)
        self.space = SearchSpace.for_graph(
            graph, budgets=budgets, n_steps=n_steps, schedulers=schedulers)
        self.evaluator = Evaluator(
            graph=graph, objective=self.objective, store=store,
            journal=journal, max_evaluations=max_evaluations,
            sim_vectors=sim_vectors, pm_base=pm_base, durability=durability)
        self.archive = ParetoArchive(self.objective, max_size=archive_size)
        self.deadline = (None if time_budget is None
                         else time.monotonic() + float(time_budget))
        self.step = 0
        self.best: Candidate | None = None
        self.best_score = -math.inf
        self.best_metrics: Mapping[str, float] = {}
        self.best_label = ""
        self.history: list[tuple[int, float]] = []
        self.greedy_scores: list[tuple[str, float]] = []

    def out_of_time(self) -> bool:
        """The anytime wall-clock budget is spent (always False without
        one)."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    # Context manager so a driver that dies mid-search (e.g. on
    # EvaluationBudgetExceeded) still closes the journal handle.
    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, *exc) -> None:
        self.evaluator.close()

    def seed_greedy(self) -> None:
        for label, candidate in self.space.greedy_candidates(self.graph):
            score, metrics = self.evaluator.evaluate(candidate)
            self.greedy_scores.append((label, score))
            self.offer(candidate, score, metrics, step=0, label=label)

    def evaluate(self, candidate: Candidate) -> float:
        """One search move: evaluate ``candidate``, count the step and
        offer the result; returns its score."""
        score, metrics = self.evaluator.evaluate(candidate)
        self.step += 1
        self.offer(candidate, score, metrics, self.step)
        return score

    def offer(self, candidate: Candidate, score: float,
              metrics: Mapping[str, float], step: int,
              label: str = "search") -> bool:
        """Offer one evaluated candidate to the archive and the scalar
        best; True when the Pareto front changed."""
        changed = self.archive.offer(candidate, metrics, label=label)
        if score > self.best_score:
            self.best, self.best_score = candidate, score
            self.best_metrics, self.best_label = metrics, label
            self.history.append((step, score))
            if self.progress is not None:
                self.progress(step, score, candidate)
        return changed

    def result(self, driver: str, seed: int) -> OptResult:
        self.evaluator.close()
        assert self.best is not None
        stats = self.evaluator.stats
        self.archive.evaluations = stats.computed
        self.archive.memo_hits = stats.memo_hits
        self.archive.store_hits = stats.store_hits
        self.archive.journal_replays = stats.resumed
        return OptResult(
            circuit=self.graph.name, driver=driver,
            objective=self.objective.signature(), seed=seed,
            best=self.best, best_score=self.best_score,
            best_metrics=tuple(sorted(self.best_metrics.items())),
            best_label=self.best_label,
            greedy_scores=tuple(self.greedy_scores),
            history=tuple(self.history),
            evaluations=stats.computed, reused=stats.reused,
            resumed=stats.resumed, memo_hits=stats.memo_hits,
            store_hits=stats.store_hits, archive=self.archive)


def _check_iters(iters: "int | None") -> None:
    if iters is not None and iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")


def walk(space: SearchSpace, rng: random.Random,
         evaluate: Callable[[Candidate], float],
         current: "Candidate | None", score: float, moves: int, *,
         temperature: "float | None" = None, final_ratio: float = 0.01,
         stop: Callable[[], bool]) -> "tuple[Candidate | None, float]":
    """Move one chain up to ``moves`` steps from ``(current, score)``;
    returns where it ended.

    With a start ``temperature`` the chain anneals: each move proposes
    a :meth:`~repro.opt.space.SearchSpace.neighbor`, accepted when no
    worse or with Metropolis probability, and the temperature cools
    geometrically to ``final_ratio`` of its start over the walk.
    Without one the chain samples the space uniformly and keeps the
    best point seen.  ``evaluate`` scores each proposal (and is where a
    driver counts and records it); ``stop`` is checked before every
    move.
    """
    if temperature is not None:
        cooling = final_ratio ** (1.0 / max(1, moves - 1))
        # The floor matters to islands, whose start temperature decays
        # per round: 0.7 ** round underflows to 0.0 after ~2090 rounds.
        temperature = max(1e-9, temperature)
    for _ in range(moves):
        if stop():
            break
        if temperature is None:
            candidate = space.random_candidate(rng)
            new_score = evaluate(candidate)
            if new_score > score:
                current, score = candidate, new_score
            continue
        candidate = space.neighbor(current, rng)
        new_score = evaluate(candidate)
        delta = new_score - score
        if delta >= 0 or rng.random() < math.exp(delta / temperature):
            current, score = candidate, new_score
        temperature *= cooling
    return current, score


def random_search(graph: CDFG, objective="gated_weight", *,
                  n_steps: int | None = None, budgets=None,
                  schedulers=("list",), iters: int = 100, seed: int = 0,
                  store=None, journal=None, max_evaluations=None,
                  sim_vectors: int = 128, pm_base=None,
                  time_budget=None, durability="batch",
                  progress=None) -> OptResult:
    """Uniform random sampling of the space — the honesty baseline."""
    _check_iters(iters)
    with _Run(graph, objective, n_steps, budgets, schedulers,
              store, journal, max_evaluations, sim_vectors, pm_base,
              progress=progress, time_budget=time_budget,
              durability=durability) as run:
        rng = random.Random(seed)
        run.seed_greedy()
        walk(run.space, rng, run.evaluate, None, -math.inf, iters,
             stop=run.out_of_time)
        return run.result("random", seed)


def anneal(graph: CDFG, objective="gated_weight", *,
           n_steps: int | None = None, budgets=None, schedulers=("list",),
           iters: int = 150, seed: int = 0, restarts: int = 2,
           store=None, journal=None, max_evaluations=None,
           sim_vectors: int = 128, pm_base=None,
           time_budget=None, durability="batch",
           progress=None) -> OptResult:
    """Seeded simulated annealing with a restart schedule.

    ``iters`` total neighborhood moves are split evenly across
    ``restarts`` chains.  Chain 0 starts from the best greedy seed;
    later chains from random candidates, re-diversifying the search.
    Each chain cools geometrically from a temperature scaled to the
    seed score down to 1% of it.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    _check_iters(iters)
    with _Run(graph, objective, n_steps, budgets, schedulers,
              store, journal, max_evaluations, sim_vectors, pm_base,
              progress=progress, time_budget=time_budget,
              durability=durability) as run:
        rng = random.Random(seed)
        run.seed_greedy()
        for restart in range(restarts):
            if run.out_of_time():
                break
            chain_iters = iters // restarts + (1 if restart < iters % restarts
                                               else 0)
            if chain_iters == 0:
                continue
            if restart == 0:
                current, score = run.best, run.best_score
            else:
                current = run.space.random_candidate(rng)
                score = run.evaluate(current)
            walk(run.space, rng, run.evaluate, current, score, chain_iters,
                 temperature=max(1.0, 0.3 * abs(run.best_score)),
                 stop=run.out_of_time)
        return run.result("anneal", seed)


def beam_search(graph: CDFG, objective="gated_weight", *,
                n_steps: int | None = None, budgets=None,
                schedulers=("list",), beam_width: int = 4, seed: int = 0,
                store=None, journal=None, max_evaluations=None,
                sim_vectors: int = 128, pm_base=None,
                time_budget=None, durability="batch",
                progress=None) -> OptResult:
    """Deterministic beam search over MUX-ordering prefixes.

    A prefix is scored by evaluating the full candidate it induces —
    the prefix followed by the remaining MUXes in savings order — so
    partial decisions are judged by a real synthesis outcome, not a
    proxy.  ``seed`` only labels the result (the driver is
    deterministic); the beam runs once per (budget, scheduler).
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    from repro.core.ordering import order_muxes

    with _Run(graph, objective, n_steps, budgets, schedulers,
              store, journal, max_evaluations, sim_vectors, pm_base,
              progress=progress, time_budget=time_budget,
              durability=durability) as run:
        run.seed_greedy()
        completion = tuple(order_muxes(graph, "savings"))
        for steps_budget in run.space.budgets:
            for scheduler in run.space.schedulers:
                beam: list[tuple[int, ...]] = [()]
                for _depth in range(len(run.space.mux_ids)):
                    if run.out_of_time():
                        break
                    extensions: list[tuple[float, tuple[int, ...]]] = []
                    for prefix in beam:
                        chosen = set(prefix)
                        for mux in run.space.mux_ids:
                            if mux in chosen:
                                continue
                            new_prefix = prefix + (mux,)
                            head = set(new_prefix)
                            order = new_prefix + tuple(
                                m for m in completion if m not in head)
                            candidate = Candidate(order=order,
                                                  n_steps=steps_budget,
                                                  scheduler=scheduler)
                            extensions.append(
                                (run.evaluate(candidate), new_prefix))
                    extensions.sort(key=lambda pair: (-pair[0], pair[1]))
                    beam = [prefix for _, prefix in extensions[:beam_width]]
        return run.result("beam", seed)


# -- the island-model portfolio --------------------------------------------

#: The heterogeneous chain profiles, cycled over island indices:
#: annealers from exploitative (cool) to explorative (hot), plus a
#: uniform-random prospector.  ``t_scale`` scales the start temperature
#: to the elite score; ``cool`` is the per-round global cooling.
ISLAND_PROFILES = (
    {"kind": "anneal", "t_scale": 0.30, "cool": 0.80},
    {"kind": "anneal", "t_scale": 0.10, "cool": 0.70},
    {"kind": "random"},
    {"kind": "anneal", "t_scale": 0.60, "cool": 0.85},
)


@dataclass(frozen=True)
class IslandState:
    """One island's chain position between rounds (picklable)."""

    current: "Candidate | None" = None
    score: float = -math.inf


def _island_rng(seed: int, island: int, round_index: int) -> random.Random:
    """Independent deterministic stream per (seed, island, round)."""
    return random.Random((seed * 1_000_003 + island) * 8_191 + round_index)


# Worker processes keep the deserialized graph across rounds; payloads
# still carry the dict form so a fresh worker can always rebuild it.
_WORKER_GRAPHS: dict[str, CDFG] = {}


def _payload_graph(payload: dict) -> CDFG:
    fingerprint = payload["fingerprint"]
    graph = _WORKER_GRAPHS.get(fingerprint)
    if graph is None:
        graph = graph_from_dict(payload["graph"])
        _WORKER_GRAPHS[fingerprint] = graph
    return graph


def run_island_round(payload: dict) -> dict:
    """One island, one round, in a worker process (top-level so the
    pool can pickle it).

    Walks ``moves`` chain steps from the shipped state, evaluating
    against the shared store with the coordinator's memo snapshot
    preloaded; ``max_fresh`` bounds fresh computations (crossing it
    ends the round early, never errors).  Returns the new state, every
    visited ``(candidate, metrics)`` in trajectory order, the session
    records to journal, and this round's stats deltas.
    """
    graph = _payload_graph(payload)
    profile = payload["profile"]
    space: SearchSpace = payload["space"]
    state: IslandState = payload["state"]
    rng = _island_rng(payload["seed"], payload["island"],
                      payload["round_index"])
    evaluator = Evaluator(
        graph=graph, objective=payload["objective"],
        store=payload["store"], journal=None,
        preload=payload["memo"], max_evaluations=payload["max_fresh"],
        sim_vectors=payload["sim_vectors"], pm_base=payload["pm_base"])
    visited: list[tuple[Candidate, dict[str, float]]] = []
    exhausted = False

    def evaluate(candidate: Candidate) -> float:
        nonlocal exhausted
        try:
            score, metrics = evaluator.evaluate(candidate)
        except EvaluationBudgetExceeded:
            # The cap ends the round: -inf is never accepted, and the
            # walk stops before its next move.
            exhausted = True
            return -math.inf
        visited.append((candidate, metrics))
        return score

    current, score = state.current, state.score
    if current is None:
        current = space.random_candidate(rng)
        score = evaluate(current)
    temperature = None
    if profile["kind"] == "anneal":
        temperature = (max(1.0, profile["t_scale"] * abs(score))
                       * profile["cool"] ** payload["round_index"])
    current, score = walk(space, rng, evaluate, current, score,
                          payload["moves"], temperature=temperature,
                          final_ratio=0.1, stop=lambda: exhausted)
    stats = evaluator.stats
    return {
        "island": payload["island"],
        "state": IslandState(current=current, score=score),
        "visited": visited,
        "session": list(evaluator.session.items()),
        "computed": stats.computed,
        "memo_hits": stats.memo_hits,
        "store_hits": stats.store_hits,
    }


def portfolio(graph: CDFG, objective="gated_weight", *,
              n_steps: int | None = None, budgets=None,
              schedulers=("list",), iters: "int | None" = 240,
              seed: int = 0, workers: int = 4, islands: "int | None" = None,
              migration_every: int = 30, store=None, journal=None,
              max_evaluations: "int | None" = None,
              sim_vectors: int = 128, pm_base=None,
              time_budget: "float | None" = None,
              archive_size: "int | None" = None,
              durability: str = "batch",
              progress=None, front_progress=None) -> OptResult:
    """Island-model parallel portfolio search (see the module docstring).

    ``iters`` is the per-island move budget (``None`` = unbounded, for
    pure ``time_budget`` / ``max_evaluations`` runs); ``islands``
    defaults to ``workers``.  The outcome depends only on (arguments,
    seed, islands) — never on worker scheduling.  ``front_progress``
    is called with ``(round, archive)`` after the greedy seeds and
    after every round that changed the Pareto front.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    islands = workers if islands is None else islands
    if islands < 1:
        raise ValueError(f"islands must be >= 1, got {islands}")
    if migration_every < 1:
        raise ValueError(
            f"migration_every must be >= 1, got {migration_every}")
    _check_iters(iters)
    if iters is None and time_budget is None and max_evaluations is None:
        raise ValueError("an unbounded portfolio needs iters=, "
                         "time_budget= or max_evaluations=")
    # The coordinator owns all journaling (group-committed); islands
    # never write, so concurrent appends cannot interleave records.
    # max_evaluations is enforced per round through the islands' caps,
    # so the coordinator's own evaluator is unbounded.
    with _Run(graph, objective, n_steps, budgets, schedulers,
              store, journal, None, sim_vectors, pm_base,
              progress=progress, time_budget=time_budget,
              durability=durability, archive_size=archive_size) as run:
        run.seed_greedy()
        if front_progress is not None:
            front_progress(0, run.archive)
        # Island work is folded into the coordinator's stats, so they
        # count the whole run.
        stats = run.evaluator.stats
        states = [IslandState() for _ in range(islands)]
        states[0] = IslandState(current=run.best, score=run.best_score)
        profiles = [ISLAND_PROFILES[k % len(ISLAND_PROFILES)]
                    for k in range(islands)]
        graph_dict = graph_to_dict(graph)
        fingerprint = run.evaluator.fingerprint()
        pool = (ProcessPoolExecutor(max_workers=min(workers, islands))
                if workers > 1 and islands > 1 else None)
        try:
            moves_done = 0        # per-island moves completed
            round_index = 0
            # EMA of wall seconds per *round move* (one move on every
            # island).  Measured, not modeled: it absorbs however much
            # of the island work the machine actually overlaps.
            per_move = 0.0
            while iters is None or moves_done < iters:
                moves = migration_every
                if iters is not None:
                    moves = min(moves, iters - moves_done)
                if run.deadline is not None:
                    remaining = run.deadline - time.monotonic()
                    if per_move > 0:
                        # Shrink the closing rounds to land on the
                        # deadline instead of overshooting by a round.
                        moves = max(1, min(moves, int(remaining / per_move)))
                    else:
                        # No cost estimate yet: probe with a short round
                        # so a tight budget is not blown before the
                        # first measurement exists.
                        moves = min(moves, 8)
                    if remaining <= (per_move if per_move > 0 else 0.0):
                        break
                caps: "list[int | None]" = [None] * islands
                if max_evaluations is not None:
                    remaining_fresh = max_evaluations - stats.computed
                    if remaining_fresh <= 0:
                        break
                    base, extra = divmod(remaining_fresh, islands)
                    caps = [base + (1 if k < extra else 0)
                            for k in range(islands)]
                round_index += 1
                memo = run.evaluator.memo_snapshot()
                payloads = [{
                    "graph": graph_dict, "fingerprint": fingerprint,
                    "objective": run.objective.signature(),
                    "space": run.space, "state": states[k],
                    "profile": profiles[k], "island": k, "seed": seed,
                    "round_index": round_index, "moves": moves,
                    "memo": memo, "max_fresh": caps[k], "store": store,
                    "sim_vectors": sim_vectors, "pm_base": pm_base,
                } for k in range(islands)]
                started = time.monotonic()
                if pool is not None:
                    reports = list(pool.map(run_island_round, payloads))
                else:
                    reports = [run_island_round(p) for p in payloads]
                sample = (time.monotonic() - started) / max(1, moves)
                per_move = sample if per_move == 0 else \
                    0.5 * per_move + 0.5 * sample
                # Index order, not completion order: worker scheduling
                # must not be observable in the merge.
                reports.sort(key=lambda report: report["island"])
                front_changed = False
                for report in reports:
                    k = report["island"]
                    states[k] = report["state"]
                    stats.computed += report["computed"]
                    stats.memo_hits += report["memo_hits"]
                    stats.store_hits += report["store_hits"]
                    for key, metrics in report["session"]:
                        run.evaluator.absorb(key, metrics)
                    for candidate, metrics in report["visited"]:
                        score = run.objective.score(metrics)
                        if run.offer(candidate, score, metrics, round_index,
                                     f"island{k}"):
                            front_changed = True
                moves_done += moves
                # Migration: reseed annealing islands from a *diverse*
                # elite set (rank + crowding), not k copies of the best.
                elites = run.archive.select(islands)
                if elites:
                    for k in range(islands):
                        if profiles[k]["kind"] == "random":
                            continue
                        elite = elites[k % len(elites)]
                        if elite.score > states[k].score:
                            states[k] = IslandState(current=elite.candidate,
                                                    score=elite.score)
                if front_progress is not None and front_changed:
                    front_progress(round_index, run.archive)
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        return run.result("portfolio", seed)


DRIVERS: dict[str, Callable[..., OptResult]] = {
    "anneal": anneal,
    "beam": beam_search,
    "random": random_search,
    "portfolio": portfolio,
}


def optimize(graph: CDFG, search: "SearchSpec | str" = SearchSpec(),
             **kwargs) -> OptResult:
    """Run one driver described by ``search`` (a :class:`SearchSpec` or
    a driver name); extra keyword arguments go to the driver.

    A driver takes the keywords its signature names.  A
    :class:`SearchSpec` field the chosen driver does not take (or a
    keyword naming one) is dropped, so one spec fits every driver; any
    other unknown keyword is an error.
    """
    spec = SearchSpec(driver=search) if isinstance(search, str) else search
    if spec.driver not in DRIVERS:
        raise ValueError(f"unknown search driver {spec.driver!r}; choose "
                         f"from {sorted(DRIVERS)}")
    driver = DRIVERS[spec.driver]
    accepted = set(inspect.signature(driver).parameters) - {"graph"}
    knobs = {f.name: getattr(spec, f.name) for f in fields(spec)
             if f.name != "driver"}
    unknown = sorted(set(kwargs) - accepted - set(knobs))
    if unknown:
        raise ValueError(
            f"unknown option(s) {', '.join(repr(k) for k in unknown)} for "
            f"driver {spec.driver!r}; valid options: "
            f"{', '.join(sorted(accepted))}")
    for name, value in knobs.items():
        if name in accepted:
            kwargs.setdefault(name, value)
        else:
            kwargs.pop(name, None)
    return driver(graph, **kwargs)
