"""Compare two result files of ``bench/run.py`` under the benchmark's bounds.

    python3 bench/compare.py A.json B.json

``A`` is the parent (or the first of two runs of one commit), ``B`` the
change. For every workload and end-to-end metric the verdict is

* ``worse``  -- B's median is worse than A's by more than the bound;
* ``better`` -- better by more than the bound;
* ``within`` -- inside the bound;
* ``unresolved`` -- the spread between the rounds of either file (first
  to third quartile over the median) is wider than the bound, so the
  files cannot tell a change of that size from noise.

Bounds and directions come from ``BENCHMARK.json``. Exits 1 when a metric
is ``worse`` or B failed a larger share of its operations than A.
"""

import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(a, b, better, bound):
    """``(verdict, change)`` for one metric; ``change`` is B over A minus
    one, signed so that positive is worse."""
    change = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        change = -change
    spread = max(
        (entry["q3"] - entry["q1"]) / entry["value"] for entry in (a, b)
    )
    if spread > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within", change


def compare(report_a, report_b, metrics):
    """Rows ``(workload, {metric: (verdict, change)}, failed_a,
    failed_b)`` for the workloads both reports measured end to end."""
    rows = []
    for name, a in report_a["workloads"].items():
        b = report_b["workloads"].get(name)
        if b is None or "end_to_end" not in a or "end_to_end" not in b:
            continue
        cells = {
            metric["name"]: verdict(
                a["end_to_end"][metric["name"]],
                b["end_to_end"][metric["name"]],
                metric["better"], metric["bound"],
            )
            for metric in metrics
        }
        rows.append((name, cells, a["failed_ops_share"],
                     b["failed_ops_share"]))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    report_a, report_b = (json.loads(Path(p).read_text()) for p in argv)
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    rows = compare(report_a, report_b, metrics)
    if not rows:
        print("no workload was measured end to end in both files")
        return 2
    regressed = False
    names = [metric["name"] for metric in metrics]
    width = max(len(name) for name, *_ in rows)
    for name, cells, failed_a, failed_b in rows:
        print(name.ljust(width), end="")
        for metric in names:
            kind, change = cells[metric]
            print(f"  {metric}: {kind} ({change:+.1%})", end="")
            regressed |= kind == "worse"
        if failed_b > failed_a:
            print(f"  failed_ops_share: worse ({failed_a:.3g} ->"
                  f" {failed_b:.3g})", end="")
            regressed = True
        print()
    print("REGRESSION" if regressed else "no regression")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
