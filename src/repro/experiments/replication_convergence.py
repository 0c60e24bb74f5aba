"""Margin convergence of the Section 5.1 ingestion agreement protocol.

Not a paper figure: the replicated backend (``backend="replicated"``)
serves each session on N control-replicated node processors whose
asynchronous analyses complete with deterministic per-node jitter. The
agreement protocol starts from a deliberately tight ingestion margin,
waits whenever a node reaches an agreed point before its local analysis
finished, and grows the margin until waits stop -- this experiment
records that trajectory (waits and margin versus tasks served) per
application, plus the live agreement-table size showing consumption
pruning at work.

The expected shape, asserted by ``benchmarks/test_replication_convergence.py``:
all waits land in the first half of the stream, the margin then stops
growing (steady state), every node issues an identical decision stream,
and the agreement table stays bounded by in-flight jobs.

Used by the benchmark suite; also runnable standalone::

    PYTHONPATH=src python -m repro.experiments replication
"""

from repro.api import open_session
from repro.apps.base import capture_stream
from repro.core.processor import ApopheniaConfig
from repro.experiments.report import format_table

#: Applications whose captured streams drive the convergence runs.
CONVERGENCE_APPS = ("s3d", "stencil", "jacobi", "cfd")

#: Reduced-scale sizing (same as the replication test suites) with a
#: tight initial margin, far below the ~40-60 op job completion latency,
#: so the protocol must wait and grow before reaching steady state.
CONVERGENCE_CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=40,
    initial_ingest_margin_ops=10,
    num_nodes=3,
)


class ConvergenceRun:
    """One application's replicated run plus its sampled trajectory."""

    __slots__ = ("app_name", "series", "agreed", "stats")

    def __init__(self, app_name, series, agreed, stats):
        self.app_name = app_name
        #: ``[(tasks_served, waits, margin_ops, agreement_table_size)]``.
        self.series = series
        self.agreed = agreed  # all nodes issued identical streams
        self.stats = stats  # final SessionStats (coordinator gauges)

    @property
    def final_margin(self):
        return self.series[-1][2]

    @property
    def total_waits(self):
        return self.series[-1][1]

    def steady_from(self):
        """First sampled task count at which the margin had reached its
        final value (the margin only ever grows, so every later sample
        is steady too)."""
        for tasks, _waits, margin, _table in self.series:
            if margin == self.final_margin:
                return tasks
        return self.series[-1][0]

    def converged_in_first_half(self):
        """True when the stream's second half saw no waits or growth."""
        half = self.series[-1][0] // 2
        tail = [p for p in self.series if p[0] > half]
        return all(
            p[1] == self.total_waits and p[2] == self.final_margin
            for p in tail
        )


def margin_convergence(app_name, num_tasks=2000, config=CONVERGENCE_CONFIG,
                       samples=25):
    """Drive one replicated session, sampling the coordinator on the way."""
    stream = capture_stream(app_name, num_tasks, task_scale=0.05)
    session = open_session(
        f"{app_name}-replicated", backend="replicated", config=config
    )
    coordinator = session.handle.coordinator
    series = []
    step = max(1, len(stream) // samples)
    # Dense sampling over the warmup (margin growth happens within the
    # first few mining jobs, i.e. the first couple hundred ops), sparse
    # across the steady-state tail.
    warmup, warmup_step = 2 * config.batchsize, max(1, step // 8)
    for index, (iteration, task) in enumerate(stream, 1):
        session.set_iteration(iteration)
        session.submit(task)
        if ((index <= warmup and index % warmup_step == 0)
                or index % step == 0 or index == len(stream)):
            series.append((
                index,
                coordinator.waits,
                coordinator.margin_ops,
                coordinator.agreement_table_size,
            ))
    session.flush()
    run = ConvergenceRun(
        app_name, series, session.handle.decisions_agree(), session.stats()
    )
    session.close()
    return run


def convergence_suite(apps=CONVERGENCE_APPS, num_tasks=2000,
                      config=CONVERGENCE_CONFIG):
    return {app: margin_convergence(app, num_tasks, config) for app in apps}


def summary_table(runs, config=CONVERGENCE_CONFIG):
    rows = [
        [
            run.app_name,
            f"{config.num_nodes}",
            f"{run.total_waits}",
            f"{config.initial_ingest_margin_ops} -> {run.final_margin}",
            f"<= {run.steady_from()}",
            f"{run.stats.agreement_table_size}",
            "yes" if run.agreed else "NO",
        ]
        for run in runs.values()
    ]
    return format_table(
        ["app", "nodes", "waits", "margin ops", "steady by task",
         "live agreements", "nodes agree"],
        rows,
        title=(
            "replication_convergence: Section 5.1 agreement protocol, "
            "margin growth to steady state (tight initial margin)"
        ),
    )


def trajectory_table(run):
    rows = [
        [tasks, waits, margin, table]
        for tasks, waits, margin, table in run.series
    ]
    return format_table(
        ["tasks served", "waits", "margin ops", "agreement entries"],
        rows,
        title=f"{run.app_name}: waits vs. margin trajectory "
              f"({CONVERGENCE_CONFIG.num_nodes} nodes)",
    )


def main():
    runs = convergence_suite()
    print(summary_table(runs))
    print()
    print(trajectory_table(runs[CONVERGENCE_APPS[0]]))
    diverged = [app for app, run in runs.items() if not run.agreed]
    if diverged:
        raise SystemExit(
            f"replicated nodes diverged: {diverged} -- invariant violated"
        )


if __name__ == "__main__":
    main()
