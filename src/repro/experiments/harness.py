"""Shared experiment machinery: run one application configuration and
collect throughput plus tracing statistics."""

from repro.apps.base import build_app


class RunResult:
    """Everything the figures need from one application run."""

    __slots__ = (
        "app_name",
        "mode",
        "gpus",
        "size",
        "throughput",
        "traced_fraction",
        "traces_recorded",
        "traces_replayed",
        "mismatches",
        "runtime",
        "app",
    )

    def __init__(self, app, warmup, end):
        runtime = app.runtime
        self.app_name = app.name
        self.mode = app.config.mode
        self.gpus = app.config.gpus
        self.size = app.config.size
        self.throughput = runtime.throughput(warmup, end)
        self.traced_fraction = runtime.traced_fraction()
        self.traces_recorded = runtime.engine.traces_recorded
        self.traces_replayed = runtime.engine.traces_replayed
        self.mismatches = runtime.engine.mismatches
        self.runtime = runtime
        self.app = app

    def __repr__(self):
        return (
            f"RunResult({self.app_name}/{self.mode}/{self.size} "
            f"gpus={self.gpus}: {self.throughput:.2f} it/s)"
        )


def run_app(
    name,
    mode,
    gpus,
    size="s",
    machine=None,
    iterations=100,
    warmup=60,
    tail_skip=15,
    task_scale=1.0,
    apophenia=None,
    cost_model=None,
    analysis_mode="fast",
    keep_task_log=True,
):
    """Run one application configuration and measure steady state.

    ``tail_skip`` excludes the final iterations from the measurement
    window: at program end, tasks buffered for an in-progress trace match
    drain untraced, which is not steady-state behaviour.
    """
    kwargs = dict(
        mode=mode,
        gpus=gpus,
        size=size,
        task_scale=task_scale,
        analysis_mode=analysis_mode,
        keep_task_log=keep_task_log,
    )
    if machine is not None:
        kwargs["machine"] = machine
    if apophenia is not None:
        kwargs["apophenia"] = apophenia
    if cost_model is not None:
        kwargs["cost_model"] = cost_model
    app = build_app(name, **kwargs)
    app.run(iterations)
    end = max(warmup + 2, iterations - tail_skip)
    return RunResult(app, warmup, end)
