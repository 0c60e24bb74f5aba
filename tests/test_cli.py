"""The ``python -m repro.experiments`` figure regeneration CLI."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import RUNNERS, main
from repro.trace import TraceDocument
from repro.trace.__main__ import main as trace_main

FIXTURE = Path(__file__).resolve().parent / "corpus" / "stencil.jsonl"


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


class TestTraceCLI:
    """``python -m repro.trace``: ``show`` and ``replay`` read a corpus
    fixture, and a file they cannot read is an ``error:`` line and
    exit 2, not a traceback."""

    def test_show_prints_the_decisions_digest(self, capsys):
        digest = TraceDocument.load(FIXTURE).footer["decisions_digest"]
        assert trace_main(["show", str(FIXTURE)]) == 0
        assert f"decisions:      {digest}" in capsys.readouterr().out

    def test_replay_standalone_is_byte_identical(self, capsys):
        digest = TraceDocument.load(FIXTURE).footer["decisions_digest"]
        assert trace_main(
            ["replay", str(FIXTURE), "--backend", "standalone"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("standalone: byte-identical")
        assert f"digest {digest}" in out

    @pytest.mark.parametrize("command", ["show", "replay"])
    def test_truncated_or_missing_file_fails_closed(
            self, command, tmp_path, capsys):
        text = FIXTURE.read_text()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(text[:len(text) // 2])
        for path in (truncated, tmp_path / "missing.jsonl"):
            assert trace_main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert "Traceback" not in captured.err


class TestProfileSubmit:
    """``scripts/profile_submit.py``: the sizing tool behind ``make
    profile`` runs a benchmark workload under the profiler."""

    def test_quick_run_prints_profile_and_wall_clock(self):
        script = Path(__file__).resolve().parent.parent / "scripts" \
            / "profile_submit.py"
        wall = "repro.core.candidates:canonical_rotation," \
            "repro.core.matching:AutomatonMatchEngine.insert"
        done = subprocess.run(
            [sys.executable, str(script), "steady_s3d", "--quick",
             "--seed", "3", "--top", "40", "--wall", wall],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        out = done.stdout
        assert "steady_s3d seed 3: 2000 tasks" in out
        assert "Ordered by: internal time" in out and "hash_task" in out
        rows = {
            line.split()[0]: line.split()[1:]
            for line in out.splitlines() if line.startswith("repro.core.")
        }
        assert sorted(rows) == sorted(wall.split(","))
        assert all(int(row[0]) > 0 for row in rows.values())  # calls

    def test_wall_clock_wraps_a_staticmethod(self):
        """``_refresh`` is a ``staticmethod``: it is timed as one, so
        the engine's ``self._refresh(head)`` calls still bind no
        ``self``."""
        script = Path(__file__).resolve().parent.parent / "scripts" \
            / "profile_submit.py"
        wall = "repro.core.matching:AutomatonMatchEngine._refresh"
        done = subprocess.run(
            [sys.executable, str(script), "steady_s3d", "--quick",
             "--seed", "3", "--top", "1", "--wall", wall],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        rows = [line.split() for line in done.stdout.splitlines()
                if line.startswith(wall)]
        assert len(rows) == 1 and int(rows[0][1]) > 0  # calls

    def test_gc_probe_prints_pauses_and_promotions(self):
        script = Path(__file__).resolve().parent.parent / "scripts" \
            / "profile_submit.py"
        done = subprocess.run(
            [sys.executable, str(script), "tenant_churn", "--quick",
             "--seed", "3", "--top", "5", "--gc"],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        start = lines.index(next(line for line in lines
                                 if line.startswith("gc generation")))
        rows = [line.split() for line in lines[start + 1:start + 4]]
        assert [row[:2] for row in rows] == [
            ["gen", "0"], ["gen", "1"], ["gen", "2"],
        ]
        assert int(rows[0][2]) > 0  # a 2,000-task round collects gen 0
        full = lines[start + 4].split(":", 1)
        assert full[0] == "tracked objects at each full collection"
        assert (full[1].strip() == "none") == (rows[2][2] == "0")
        assert lines[start + 5] == \
            "young objects at generation-1 starts, top 5 types:"
        census = [line.split() for line in lines[start + 6:]
                  if line.startswith("  ")]
        assert len(census) == (5 if int(rows[1][2]) else 0)
        assert all(int(row[-1].replace(",", "")) > 0 for row in census)

    def test_alloc_probe_prints_memory_and_sites(self):
        script = Path(__file__).resolve().parent.parent / "scripts" \
            / "profile_submit.py"
        done = subprocess.run(
            [sys.executable, str(script), "steady_s3d", "--quick",
             "--seed", "3", "--top", "5", "--alloc"],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        start = lines.index(next(line for line in lines
                                 if line.startswith("tracemalloc: ")))
        current, peak = (float(word) for word in lines[start].split()
                         if word.replace(".", "").isdigit())
        assert 0 < current <= peak
        assert lines[start + 1].split()[-2:] == ["KiB", "blocks"]
        sites = [line.split() for line in lines[start + 2:]]
        assert 1 <= len(sites) <= 5
        assert any(site[0].startswith("src/repro/") for site in sites)
        assert all(int(site[-1].replace(",", "")) > 0 for site in sites)

    def test_cycle_census_finds_nothing_a_closed_deployment_left(self):
        script = Path(__file__).resolve().parent.parent / "scripts" \
            / "profile_submit.py"
        done = subprocess.run(
            [sys.executable, str(script), "tenant_churn", "--quick",
             "--seed", "3", "--top", "5", "--cycles"],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        start = lines.index(next(line for line in lines
                                 if line.startswith("cycle census: ")))
        assert lines[start].split()[2] == "0", lines[start:]
        assert lines[start + 1:] == []  # no type to list
