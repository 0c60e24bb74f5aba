#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts: the claim protocol.

    python3 scripts/pairs.py PARENT_DIR CHANGE_DIR --workload W
                             [--pairs N] [--seed S] [--quick]

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of this repository
(e.g. ``git archive <sha> | tar -x -C DIR``). Each pair runs
``bench/run.py --workload W --trace 0`` once in each, in a process of its
own, the parent first on even pairs and the change first on odd ones, so
a drift of the machine's speed falls on both sides alike. Every run
writes its report into a temporary directory: nothing is written under
either checkout's ``bench/``.

For every end-to-end metric of ``BENCHMARK.json`` it prints the median
of each side over the pairs, how many pairs the change won (strictly
better in the metric's direction) and the parent's interquartile range
over its median. A metric whose parent IQR exceeds its bound is marked
``unresolved``: these pairs cannot tell a change of that size from
noise. A claimed gain needs the change to win nearly every pair and its
median to clear the parent's by more than that IQR.

Exits 1 when a run fails or reports a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(checkout, workload, seed, quick, out):
    """The end-to-end section of one ``bench/run.py`` run in
    ``checkout``; raises ``RuntimeError`` when the run failed."""
    checkout = Path(checkout).resolve()
    command = [sys.executable, str(checkout / "bench" / "run.py"),
               "--workload", workload, "--trace", "0", "--out", str(out)]
    if seed is not None:
        command += ["--seed", str(seed)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=1800)
    result = (json.loads(out.read_text())["workloads"][workload]
              if out.exists() else {})
    if done.returncode or result.get("failed", 1):
        raise RuntimeError(
            f"{checkout}: bench/run.py failed ({done.returncode})\n"
            + done.stdout[-2000:] + done.stderr[-2000:])
    return {name: entry["value"]
            for name, entry in result["end_to_end"].items()}


def relative_iqr(values):
    """First to third quartile over the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(parent_runs, change_runs, metrics):
    """One row per metric: ``(name, parent median, change median, won,
    parent IQR, bound, unresolved)``."""
    rows = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        sign = 1 if metric["better"] == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        iqr = relative_iqr(parent)
        rows.append((name, statistics.median(parent),
                     statistics.median(change), won, iqr, bound,
                     iqr > bound))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int,
                        help="bench/run.py's seed (default: its own)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size runs")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent")
            for side in order:
                out = Path(scratch) / f"{side}-{pair}.json"
                try:
                    runs[side].append(run_once(
                        getattr(args, side), args.workload, args.seed,
                        args.quick, out))
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 1
    print(f"workload {args.workload}  pairs {args.pairs}  "
          f"seed {args.seed if args.seed is not None else 'default'}")
    header = ("metric", "parent", "change", "won", "parent_iqr", "bound",
              "verdict")
    table = [header] + [
        (name, f"{parent:.6g}", f"{change:.6g}", f"{won}/{args.pairs}",
         f"{iqr:.3f}", f"{bound:.2f}", "unresolved" if unresolved else "")
        for name, parent, change, won, iqr, bound, unresolved
        in summarize(runs["parent"], runs["change"], metrics)
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(width) if i == 0 else cell.rjust(width)
                        for i, (cell, width) in enumerate(zip(row, widths)))
              .rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
