"""CLI coverage for ``python -m repro crossval`` and the EmpathyError
exit-code contract on both entry points."""

import pytest

from repro.__main__ import main as repro_main

CROSSVAL_FAST = [
    "crossval",
    "--placements",
    "1",
    "--failures",
    "2",
    "--kinds",
    "link-1",
]


class TestCrossvalCli:
    def test_renders_metrics_and_agreement_matrix(self, capsys):
        assert repro_main(CROSSVAL_FAST) == 0
        out = capsys.readouterr().out
        assert "crossval: per-kind diagnoser metrics" in out
        assert "agreement matrix (ensemble verdicts)" in out
        assert "nd-edge|empathy:" in out

    def test_single_diagnoser_exits_2(self, capsys):
        code = repro_main(CROSSVAL_FAST + ["--diagnosers", "nd-edge"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "at least two diagnosers" in err

    def test_nd_lg_is_not_a_crossval_choice(self):
        with pytest.raises(SystemExit):
            repro_main(CROSSVAL_FAST + ["--diagnosers", "nd-edge", "nd-lg"])

    def test_diagnose_accepts_registry_names(self, capsys):
        code = repro_main(
            ["diagnose", "--kind", "link-1", "--algorithms", "empathy", "scfs"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "empathy" in out
        assert "scfs" in out


class TestEmpathyErrorExitCode:
    def test_top_level_cli_exits_2(self, monkeypatch, capsys):
        import repro.__main__ as cli
        from repro.errors import EmpathyError

        def explode(args):
            raise EmpathyError("injected for the test")

        monkeypatch.setattr(cli, "_cmd_crossval", explode)
        code = cli.main(["crossval"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_figures_cli_exits_2(self, monkeypatch, capsys):
        from repro.errors import EmpathyError
        from repro.experiments.figures import FIGURES

        def explode(config):
            raise EmpathyError("ensemble misconfigured")

        monkeypatch.setitem(FIGURES, "5", explode)
        code = repro_main(["figures", "--figure", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: ensemble misconfigured" in captured.err
