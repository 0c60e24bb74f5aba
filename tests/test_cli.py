"""The ``python -m repro.experiments`` figure regeneration CLI."""

import pytest

from repro.experiments.__main__ import RUNNERS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig6a", "fig8", "fig9", "fig10", "sec63"):
            assert fig in out

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 2

    def test_all_figures_registered(self):
        assert set(RUNNERS) == {
            "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9", "fig10",
            "sec63", "replication", "trace",
        }

    def test_sec63_runs(self, capsys):
        assert main(["sec63"]) == 0
        out = capsys.readouterr().out
        assert "sec 6.3" in out
        assert "us" in out
