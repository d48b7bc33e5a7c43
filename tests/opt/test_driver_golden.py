"""Golden regression: every search driver's trajectory is pinned.

For each (circuit, driver, objective) the search runs over the budgets
cp..cp+2 and both the ``list`` and ``force_directed`` schedulers, and
the snapshot pins the resume-invariant :meth:`OptResult.outcome`, the
run counters and the Pareto archive's counters.  The portfolio driver
runs at ``workers`` 1 and 2 against the same record: its outcome and
counters must not depend on worker scheduling.

Regenerating after an intended driver change::

    PYTHONPATH=src python tests/opt/test_driver_golden.py

then review the diff — a moved trajectory is always a conscious
decision.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "drivers.json"

CIRCUITS = ("gcd", "vender", "dealer", "gen:branchy:3")
OBJECTIVES = ("gated_weight", "gated_weight,area=0.05")
SCHEDULERS = ("list", "force_directed")
SEED = 7

#: Per-driver knobs, small enough that the grid stays quick.
DRIVER_KWARGS = {
    "anneal": dict(iters=24, restarts=2),
    "beam": dict(beam_width=2),
    "random": dict(iters=16),
    "portfolio": dict(iters=14, islands=5, migration_every=7),
}

COUNTERS = ("evaluations", "reused", "memo_hits", "store_hits", "resumed")


def run_point(circuit: str, driver: str, objective: str,
              workers: int = 1) -> dict[str, object]:
    """One driver run on the grid, reduced to what the snapshot pins."""
    from repro.circuits import build
    from repro.opt import optimize
    from repro.sched.timing import critical_path_length

    graph = build(circuit)
    cp = critical_path_length(graph)
    kwargs = dict(DRIVER_KWARGS[driver])
    if driver == "portfolio":
        kwargs["workers"] = workers
    result = optimize(graph, driver, objective=objective, seed=SEED,
                      budgets=(cp, cp + 1, cp + 2), schedulers=SCHEDULERS,
                      **kwargs)
    return {
        "outcome": result.outcome(),
        "counters": {name: getattr(result, name) for name in COUNTERS},
        "archive_counters": result.archive.counters,
    }


def point_name(circuit: str, driver: str, objective: str) -> str:
    return f"{circuit}/{driver}/{objective}"


GRID = [(circuit, driver, objective)
        for circuit in CIRCUITS
        for driver in DRIVER_KWARGS
        for objective in OBJECTIVES]


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), \
        "missing golden snapshot; run tests/opt/test_driver_golden.py"
    return json.loads(GOLDEN_PATH.read_text())


def test_grid_is_the_recorded_grid(golden):
    assert golden["driver_kwargs"] == DRIVER_KWARGS
    assert sorted(golden["points"]) == sorted(
        point_name(*point) for point in GRID)


@pytest.mark.parametrize("circuit,driver,objective", GRID)
def test_driver_matches_golden(golden, circuit, driver, objective):
    expected = golden["points"][point_name(circuit, driver, objective)]
    # The JSON round trip turns the outcome's tuples into lists.
    fresh = json.loads(json.dumps(run_point(circuit, driver, objective)))
    assert fresh == expected


@pytest.mark.parametrize("circuit,objective",
                         [(c, o) for c in CIRCUITS for o in OBJECTIVES])
def test_pooled_portfolio_matches_golden(golden, circuit, objective):
    expected = golden["points"][point_name(circuit, "portfolio", objective)]
    fresh = json.loads(json.dumps(
        run_point(circuit, "portfolio", objective, workers=2)))
    assert fresh == expected


def main() -> int:
    points = {point_name(*point): run_point(*point) for point in GRID}
    payload = {"seed": SEED, "driver_kwargs": DRIVER_KWARGS,
               "points": points}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(points)} points)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.exit(main())
