"""Smoke test of ``scripts/pairs.py``, the alternating-pairs runner.

One ``--quick`` pair on one workload with this checkout on both sides:
the report names every end-to-end metric of ``BENCHMARK.json`` once, with
both medians, the pairs won, the parent's IQR and the bound, and nothing
is written under ``bench/``. How fast the machine is does not enter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _bench_files():
    return sorted(p for p in (ROOT / "bench").rglob("*")
                  if "__pycache__" not in p.parts)


def test_one_quick_pair_reports_every_end_to_end_metric():
    before = _bench_files()
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pairs.py"), str(ROOT),
         str(ROOT), "--workload", "irregular_novel", "--quick",
         "--pairs", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    title, header, *rows = done.stdout.splitlines()
    assert title.split() == ["workload", "irregular_novel", "pairs", "1",
                             "seed", "default"]
    assert header.split() == ["metric", "parent", "change", "won",
                              "parent_iqr", "bound", "verdict"]
    assert [row.split()[0] for row in rows] == [m["name"] for m in METRICS]
    for row, metric in zip(rows, METRICS):
        # One pair: a zero IQR, so no metric is unresolved.
        name, parent, change, won, iqr, bound = row.split()
        assert float(parent) > 0 and float(change) > 0
        assert won in ("0/1", "1/1")
        assert float(iqr) == 0
        assert float(bound) == metric["bound"]
    assert _bench_files() == before
