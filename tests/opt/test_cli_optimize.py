"""The ``repro optimize`` subcommand and ``repro explore --search``."""

import json

import pytest

from repro.cli import main


class TestOptimizeCommand:
    def test_default_anneal_run(self, capsys):
        assert main(["optimize", "gcd", "--steps", "7",
                     "--iters", "40"]) == 0
        out = capsys.readouterr().out
        assert "anneal on 'gcd'" in out
        assert "greedy" in out and "best" in out
        assert "chosen design:" in out

    def test_beam_driver_and_budgets(self, capsys):
        assert main(["optimize", "dealer", "--search", "beam",
                     "--budgets", "5,6", "--beam-width", "2"]) == 0
        out = capsys.readouterr().out
        assert "beam on 'dealer'" in out

    def test_weighted_objective(self, capsys):
        assert main(["optimize", "dealer", "--steps", "6",
                     "--objective", "gated_weight,area=0.01",
                     "--iters", "10"]) == 0
        assert "chosen design:" in capsys.readouterr().out

    def test_bad_objective_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit, match="unknown metric"):
            main(["optimize", "dealer", "--steps", "6",
                  "--objective", "nonsense"])

    def test_bad_budgets_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="--budgets"):
            main(["optimize", "dealer", "--budgets", "five"])

    def test_infeasible_budget_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="critical path"):
            main(["optimize", "gcd", "--steps", "2", "--iters", "5"])

    def test_store_and_resume_flags(self, capsys, tmp_path):
        journal = tmp_path / "opt.jsonl"
        args = ["optimize", "gcd", "--steps", "7", "--iters", "30",
                "--store", str(tmp_path / "store"), "--resume",
                str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resumed from journal" in out
        meta = json.loads(journal.read_text().splitlines()[0])
        assert meta["kind"] == "opt-journal"

    def test_partial_flag_reaches_the_synthesized_design(self, capsys,
                                                         tmp_path):
        """--partial must shape both the search and the final synthesis
        of the chosen design (regression: the report used to rebuild
        the design with partial gating off)."""
        source = tmp_path / "pgate.circ"
        source.write_text("""
circuit pgate {
    input a, b, c, d;
    x = a + b;
    y = x * c;
    c0 = a > d;
    output out = c0 ? y : d;
}
""")
        assert main(["optimize", str(source), "--steps", "3",
                     "--iters", "10"]) == 0
        assert "chosen design: 0 managed muxes" in capsys.readouterr().out
        assert main(["optimize", str(source), "--steps", "3",
                     "--iters", "10", "--partial"]) == 0
        assert "chosen design: 1 managed muxes" in capsys.readouterr().out

    def test_gen_family_spec(self, capsys):
        assert main(["optimize", "gen:branchy:2", "--budgets", "13",
                     "--search", "beam"]) == 0
        out = capsys.readouterr().out
        assert "gen:branchy:2" in out
        # The pinned seed where search beats every greedy strategy.
        assert "+1.2500 over greedy" in out


class TestExploreSearchFlag:
    def test_search_mode_prints_one_point_per_circuit(self, capsys):
        assert main(["explore", "dealer", "gcd", "--budgets", "6,7",
                     "--search", "beam"]) == 0
        out = capsys.readouterr().out
        assert "beam[gated_weight]" in out
        assert out.count("beam[gated_weight]") == 2
        assert "best point:" in out

    def test_infeasible_budget_is_a_clean_error(self):
        """Search mode reports bad budgets as ValueError; the CLI must
        still exit cleanly, like grid mode does."""
        with pytest.raises(SystemExit, match="critical path"):
            main(["explore", "gcd", "--budgets", "2", "--search",
                  "anneal"])


class _Dispatched(Exception):
    """Stops a command once its search request has been captured."""


class TestItersResolution:
    """``--iters`` is honoured whenever given, whatever its value; only
    an omitted ``--iters`` on a portfolio run with a ``--time-budget``
    leaves the wall clock as the sole cap."""

    CASES = [
        (["--iters", "150"], 150),
        (["--iters", "151"], 151),
        ([], None),
    ]

    @pytest.fixture
    def optimize_spec(self, monkeypatch):
        seen = []

        def fake_optimize(graph, spec, **kwargs):
            seen.append(spec)
            raise _Dispatched

        monkeypatch.setattr("repro.cli.optimize", fake_optimize)
        return seen

    @pytest.fixture
    def submitted(self, monkeypatch):
        seen = []

        def fake_submit(client, kind, **params):
            seen.append(params)
            return {"id": "job", "state": "queued"}

        monkeypatch.setattr("repro.serve.client.ServeClient.submit",
                            fake_submit)
        return seen

    @pytest.mark.parametrize("flags,expected", CASES)
    def test_optimize_portfolio_with_time_budget(self, optimize_spec,
                                                 flags, expected):
        with pytest.raises(_Dispatched):
            main(["optimize", "gcd", "--steps", "7", "--search",
                  "portfolio", "--time-budget", "5", *flags])
        assert optimize_spec[0].iters == expected

    @pytest.mark.parametrize("flags,expected", CASES)
    def test_submit_portfolio_with_time_budget(self, submitted, capsys,
                                               flags, expected):
        assert main(["submit", "optimize", "gcd", "--budgets", "7",
                     "--search", "portfolio", "--time-budget", "5",
                     *flags]) == 0
        assert submitted[0]["iters"] == expected

    @pytest.mark.parametrize("search", ["anneal", "portfolio"])
    def test_default_without_time_budget(self, optimize_spec, submitted,
                                         capsys, search):
        with pytest.raises(_Dispatched):
            main(["optimize", "gcd", "--steps", "7", "--search", search])
        assert main(["submit", "optimize", "gcd", "--budgets", "7",
                     "--search", search]) == 0
        assert optimize_spec[0].iters == 150
        assert submitted[0]["iters"] == 150

    def test_driver_choices_come_from_the_registry(self, capsys):
        from repro.opt.search import DRIVERS

        with pytest.raises(SystemExit):
            main(["optimize", "gcd", "--search", "tabu"])
        err = capsys.readouterr().err
        assert all(repr(name) in err for name in DRIVERS)
