"""Regenerate the paper's evaluation from the command line.

Usage::

    python -m repro.experiments             # everything (several minutes)
    python -m repro.experiments fig6a fig8  # selected figures
    python -m repro.experiments --list

Figures: fig6a fig6b fig7a fig7b fig8 fig9 fig10 sec63
Extras (not paper figures): replication (Section 5.1 agreement-margin
convergence on the replicated backend), trace (corpus-wide
capture/re-drive parity matrix across backends). Timings of the repo's
own layers are not experiments: ``python3 bench/run.py`` measures them.
"""

import sys

from repro.registry import Registry

from repro.experiments.replication_convergence import main as run_replication
from repro.experiments.overheads import launch_overheads
from repro.experiments.report import (
    format_speedups,
    format_table,
    format_weak_scaling,
)
from repro.experiments.strong_scaling import flexflow_strong_scaling
from repro.experiments.trace_redrive import main as run_trace_redrive
from repro.experiments.trace_search import trace_search_timeline
from repro.experiments.warmup import warmup_table
from repro.experiments.weak_scaling import WEAK_SCALING_FIGURES, weak_scaling


def run_weak(fig):
    spec = WEAK_SCALING_FIGURES[fig]
    results = weak_scaling(spec, sizes=("s", "m", "l"))
    print(format_weak_scaling(results, fig))


def run_fig8():
    speedups, _ = flexflow_strong_scaling()
    print(format_speedups(speedups, "fig8: FlexFlow speedup vs untraced@1GPU"))


def run_fig9():
    table = warmup_table(threshold=0.7)
    rows = [
        [app, m if m is not None else "never", p]
        for app, (m, p) in sorted(table.items())
    ]
    print(format_table(["application", "measured", "paper"], rows,
                       title="fig9: warmup iterations"))


def run_fig10():
    series, _run = trace_search_timeline()
    step = max(1, len(series) // 30)
    rows = [[i, f"{series[i]:.1f}"] for i in range(0, len(series), step)]
    print(format_table(["task index", "% traced"], rows,
                       title="fig10: S3D trace search"))


def run_sec63():
    data = launch_overheads()
    rows = [[k, f"{v * 1e6:.2f} us"] for k, v in data.items()]
    print(format_table(["quantity", "value"], rows, title="sec 6.3 overheads"))


RUNNERS = Registry("experiment", {
    "fig6a": lambda: run_weak("fig6a"),
    "fig6b": lambda: run_weak("fig6b"),
    "fig7a": lambda: run_weak("fig7a"),
    "fig7b": lambda: run_weak("fig7b"),
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "sec63": run_sec63,
    "replication": run_replication,
    "trace": run_trace_redrive,
})


def main(argv):
    if "--list" in argv:
        print("\n".join(RUNNERS))
        return 0
    targets = argv or list(RUNNERS)
    unknown = [t for t in targets if t not in RUNNERS]
    if unknown:
        print(f"unknown figures: {unknown}; use --list", file=sys.stderr)
        return 2
    for target in targets:
        print(f"==== {target} " + "=" * 50)
        RUNNERS[target]()
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
