"""Island-model portfolio driver: determinism, budgets, resume, wiring.

The load-bearing property is that rounds — not workers — are the unit
of determinism: the outcome is a pure function of (configuration, seed,
islands), worker scheduling only changes concurrency, and a journal
resume lands on the uninterrupted run's outcome exactly.
"""

import functools
import json

import pytest

from repro.circuits import build
from repro.core.reordering import gated_weight, strategy_search
from repro.opt import optimize
from repro.opt.search import ISLAND_PROFILES, IslandState, portfolio
from repro.opt.search import SearchSpec
from repro.pipeline.explore import explore


@pytest.fixture(scope="module")
def branchy_graph():
    return build("gen:branchy:8")


BASE = dict(n_steps=12, iters=60, seed=3, islands=3, workers=1)


class TestDeterminism:
    def test_same_config_same_outcome(self, branchy_graph):
        assert portfolio(branchy_graph, **BASE).outcome() == \
            portfolio(branchy_graph, **BASE).outcome()

    def test_workers_do_not_change_the_outcome(self, branchy_graph):
        """Worker-scheduling independence: islands pinned, worker count
        varied — byte-identical outcome including the Pareto front."""
        serial = portfolio(branchy_graph, **{**BASE, "workers": 1})
        pooled = portfolio(branchy_graph, **{**BASE, "workers": 2})
        assert serial.outcome() == pooled.outcome()

    def test_outcome_is_json_compatible(self, branchy_graph):
        outcome = portfolio(branchy_graph, **BASE).outcome()
        assert json.loads(json.dumps(outcome)) == outcome
        assert "pareto" in outcome


class TestQuality:
    def test_at_least_best_greedy(self, branchy_graph):
        best_greedy = gated_weight(strategy_search(branchy_graph, 12).best)
        result = portfolio(branchy_graph, **BASE)
        assert result.best_score >= best_greedy - 1e-9
        assert result.driver == "portfolio"

    def test_archive_carries_best_and_counters(self, branchy_graph):
        result = portfolio(branchy_graph, **BASE)
        archive = result.archive
        assert archive is not None
        assert archive.best().score == pytest.approx(result.best_score)
        assert archive.counters["evaluations"] == result.evaluations
        assert result.memo_hits + result.store_hits == result.reused

    def test_multi_objective_front(self, branchy_graph):
        result = portfolio(branchy_graph,
                           objective="gated_weight,area=0.05",
                           budgets=(12, 13, 14), **{k: v for k, v in
                                                    BASE.items()
                                                    if k != "n_steps"})
        front = result.archive.front()
        assert len(front) >= 2  # the area trade-off is real here
        labels = {entry.label for entry in front}
        assert labels  # provenance labels survive the merge
        assert result.outcome()["pareto"] == [
            entry.to_dict() for entry in front]


class TestBudgets:
    def test_zero_time_budget_returns_the_greedy_floor(self, branchy_graph):
        result = portfolio(branchy_graph, n_steps=12, iters=None,
                           time_budget=0.0, seed=0, workers=1)
        best_greedy = max(score for _, score in result.greedy_scores)
        assert result.best_score == pytest.approx(best_greedy)

    def test_max_evaluations_stops_gracefully(self, branchy_graph):
        result = portfolio(branchy_graph, n_steps=12, iters=None,
                           max_evaluations=25, seed=0, workers=1,
                           islands=2)
        assert result.evaluations <= 25
        assert result.best_score >= max(
            score for _, score in result.greedy_scores) - 1e-9

    def test_unbounded_portfolio_is_rejected(self, branchy_graph):
        with pytest.raises(ValueError, match="unbounded portfolio"):
            portfolio(branchy_graph, n_steps=12, iters=None)

    def test_bad_shape_arguments(self, branchy_graph):
        with pytest.raises(ValueError, match="workers"):
            portfolio(branchy_graph, n_steps=12, workers=0)
        with pytest.raises(ValueError, match="islands"):
            portfolio(branchy_graph, n_steps=12, islands=0)
        with pytest.raises(ValueError, match="migration_every"):
            portfolio(branchy_graph, n_steps=12, migration_every=0)

    def test_negative_iters_rejected(self, branchy_graph):
        with pytest.raises(ValueError, match="iters must be >= 0"):
            portfolio(branchy_graph, n_steps=12, iters=-1, workers=1)


class TestResume:
    def test_interrupted_resume_lands_on_the_uninterrupted_outcome(
            self, branchy_graph, tmp_path):
        journal = tmp_path / "portfolio.jsonl"
        kwargs = dict(n_steps=12, iters=60, seed=3, islands=3, workers=1)
        uninterrupted = portfolio(branchy_graph, **kwargs)

        # Interrupt: the evaluation cap ends the run after a partial
        # journal exists (gracefully — budgets never raise here).
        partial = portfolio(branchy_graph, journal=journal,
                            max_evaluations=12, **kwargs)
        assert partial.evaluations <= 12

        resumed = portfolio(branchy_graph, journal=journal, **kwargs)
        assert resumed.outcome() == uninterrupted.outcome()
        # Warm-resume counters: replays and memo hits are visible and
        # aggregated across islands.
        assert resumed.resumed > 0
        assert resumed.journal_replays == resumed.resumed
        assert resumed.archive.counters["journal_replays"] > 0
        assert resumed.evaluations < uninterrupted.evaluations

    def test_warm_replay_costs_nothing_new(self, branchy_graph, tmp_path):
        journal = tmp_path / "portfolio.jsonl"
        kwargs = dict(n_steps=12, iters=40, seed=1, islands=2, workers=1)
        first = portfolio(branchy_graph, journal=journal, **kwargs)
        replay = portfolio(branchy_graph, journal=journal, **kwargs)
        assert replay.outcome() == first.outcome()
        assert replay.evaluations == 0
        assert replay.resumed > 0
        assert replay.memo_hits > 0  # islands served from the preload


class TestDispatch:
    def test_optimize_accepts_portfolio_spec(self, branchy_graph):
        spec = SearchSpec(driver="portfolio", iters=40, seed=3, workers=1)
        result = optimize(branchy_graph, spec, n_steps=12, islands=2)
        assert result.driver == "portfolio"
        assert result.archive is not None

    def test_unknown_kwargs_are_rejected_with_the_valid_set(
            self, branchy_graph):
        with pytest.raises(ValueError) as err:
            optimize(branchy_graph, "portfolio", n_steps=12, bogus=1)
        message = str(err.value)
        assert "bogus" in message and "portfolio" in message
        assert "workers" in message  # the valid options are listed
        with pytest.raises(ValueError, match="workers_typo") as err:
            # workers is a portfolio knob, not an anneal knob.
            optimize(branchy_graph, "anneal", n_steps=12, iters=5,
                     workers_typo=2)
        assert "anneal" in str(err.value)

    def test_spec_knobs_for_other_drivers_are_dropped(self, branchy_graph):
        # One SearchSpec fits every driver: anneal ignores the spec's
        # workers field rather than crashing on it.
        spec = SearchSpec(driver="anneal", iters=10, workers=8)
        result = optimize(branchy_graph, spec, n_steps=12)
        assert result.driver == "anneal"

    def test_time_budget_flows_from_the_spec(self, branchy_graph):
        spec = SearchSpec(driver="portfolio", iters=None, workers=1,
                          time_budget=0.0)
        result = optimize(branchy_graph, spec, n_steps=12)
        assert result.evaluations <= len(result.greedy_scores)


class TestExploreWiring:
    def test_explore_search_portfolio(self):
        result = explore(["gcd"], budgets=(7,), workers=1,
                         search=SearchSpec(driver="portfolio", iters=30,
                                           seed=2, workers=1))
        assert len(result.points) == 1
        point = result.points[0]
        assert point.circuit == "gcd"
        assert point.config_label == "portfolio[gated_weight]"

    def test_spec_workers_win_unless_explore_sets_them(self, monkeypatch):
        """``explore(workers=None)`` leaves the spec's ``workers`` alone;
        an explicit ``workers`` overrides it."""
        from repro.opt import search as search_module

        seen = []
        real = search_module.DRIVERS["portfolio"]

        @functools.wraps(real)
        def spy(graph, **kwargs):
            seen.append(kwargs["workers"])
            return real(graph, **{**kwargs, "workers": 1})

        monkeypatch.setitem(search_module.DRIVERS, "portfolio", spy)
        spec = SearchSpec(driver="portfolio", iters=10, seed=2, workers=4)
        explore(["gcd"], budgets=(7,), search=spec)
        explore(["gcd"], budgets=(7,), workers=2, search=spec)
        assert seen == [4, 2]


class TestProfiles:
    def test_profiles_cycle_and_state_defaults(self):
        assert any(p["kind"] == "random" for p in ISLAND_PROFILES)
        assert any(p["kind"] == "anneal" for p in ISLAND_PROFILES)
        state = IslandState()
        assert state.current is None
        assert state.score == float("-inf")
