"""Common application scaffolding.

Every application runs in one of three modes, matching the paper's
experiment configurations:

* ``untraced`` -- tasks go straight to the runtime's dependence analysis;
* ``manual`` -- the application wraps its repeated fragments in
  ``tbegin``/``tend`` using application knowledge (only the applications
  that had manual tracing in the paper support this);
* ``auto`` -- tasks flow through an :class:`ApopheniaProcessor`.

Applications issue tasks against persistent regions partitioned across
GPUs, with per-size execution costs and a communication cost per halo
exchange derived from the machine and cost models.
"""

from repro.api import build_config, open_session
from repro.apps.jacobi import jacobi_task_stream
from repro.registry import Registry
from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.machine import PERLMUTTER
from repro.runtime.region import RegionForest
from repro.runtime.runtime import Runtime

MODES = ("untraced", "manual", "auto")


class AppConfig:
    """Bundle of knobs shared by all applications."""

    def __init__(
        self,
        machine=PERLMUTTER,
        gpus=4,
        size="s",
        mode="untraced",
        cost_model=DEFAULT_COST_MODEL,
        apophenia=None,
        analysis_mode="fast",
        keep_task_log=True,
        task_scale=1.0,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.machine = machine
        self.gpus = gpus
        self.size = size
        self.mode = mode
        self.cost_model = cost_model
        if apophenia is None:
            # The front door, not a bare ApopheniaConfig(): applications
            # pick up the documented REPRO_* environment layering.
            apophenia = build_config()
            if task_scale != 1.0:
                # The history buffer and sampling granularity are sized
                # in tasks; scale both proportionally with the stream so
                # trace discovery behaves like the full-scale run (the
                # factor must track the apps' repeating-unit lengths, so
                # it is never rounded). The buffer used to be pinned
                # down to a power-of-two factor multiple because the
                # extended ruler periods (see MultiScaleSampler) surface
                # full-buffer candidates whose misaligned commits
                # churned the scoring; scoring hysteresis now charges
                # those candidates their realized misalignment record
                # instead, so the buffer keeps its natural scaled size
                # (the experiment windows are calibrated to the
                # correspondingly longer discovery timeline).
                apophenia = apophenia.with_overrides(
                    batchsize=max(
                        2 * apophenia.min_trace_length,
                        int(apophenia.batchsize * task_scale),
                    ),
                    multi_scale_factor=max(
                        10, int(apophenia.multi_scale_factor * task_scale)
                    ),
                    hysteresis=2.0,
                    job_base_latency_ops=max(
                        5, int(apophenia.job_base_latency_ops * task_scale)
                    ),
                    initial_ingest_margin_ops=max(
                        10,
                        int(apophenia.initial_ingest_margin_ops * task_scale),
                    ),
                )
        self.apophenia = apophenia
        self.analysis_mode = analysis_mode
        self.keep_task_log = keep_task_log
        # Scales per-iteration task counts down for fast tests (costs per
        # iteration are scaled up to compensate, preserving throughput).
        self.task_scale = task_scale


class Application:
    """Base class: owns the runtime, the executor, and the run loop."""

    #: Override in subclasses.
    name = "app"
    #: size label -> per-task execution seconds on one GPU.
    sizes = {"s": 2e-4, "m": 8e-4, "l": 3.2e-3}
    #: True if the paper had a manually traced version.
    supports_manual = False

    def __init__(self, config):
        if config.mode == "manual" and not self.supports_manual:
            raise ValueError(
                f"{self.name} has no manually traced version (Section 6.1: "
                "composition makes manual annotation impractical)"
            )
        self.config = config
        cost_model = config.cost_model
        if config.task_scale != 1.0:
            # Fewer, proportionally heavier tasks: per-task costs scale up
            # so per-iteration totals (and thus throughput curves) are
            # preserved while tests run faster.
            s = config.task_scale
            cost_model = cost_model.with_overrides(
                launch_cost=cost_model.launch_cost / s,
                apophenia_launch_cost=cost_model.apophenia_launch_cost / s,
                analysis_cost=cost_model.analysis_cost / s,
                memo_cost=cost_model.memo_cost / s,
                replay_cost=cost_model.replay_cost / s,
                replay_issue_per_task=cost_model.replay_issue_per_task / s,
                replay_issue_quadratic=cost_model.replay_issue_quadratic / (s * s),
                replay_issue_quad_threshold=max(
                    1, int(cost_model.replay_issue_quad_threshold * s)
                ),
            )
        self.cost_model = cost_model
        self.runtime = Runtime(
            cost_model=cost_model,
            machine=config.machine,
            gpus=config.gpus,
            auto_tracing=(config.mode == "auto"),
            mismatch_policy="fallback",
            analysis_mode=config.analysis_mode,
            keep_task_log=config.keep_task_log,
        )
        if config.mode == "auto":
            # One standalone facade session over the app's own runtime:
            # applications drive the same client API every other
            # deployment uses, and stay oblivious to what serves them.
            self.session = open_session(
                f"app:{self.name}", runtime=self.runtime,
                config=config.apophenia,
            )
            self.processor = self.session.processor
            self.executor = self.session
        else:
            self.session = None
            self.processor = None
            self.executor = self.runtime
        self.setup()

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def setup(self):
        """Create regions and per-run state."""

    def iteration(self, index):
        """Issue one iteration's tasks through ``self.executor``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @property
    def task_time(self):
        """Per-task execution seconds for this size on this machine."""
        base = self.sizes[self.config.size]
        scaled = base / self.config.machine.gpu_throughput
        return scaled / self.config.task_scale

    def comm_time(self, bytes_per_gpu=None):
        """Virtual time of one halo exchange at the current scale."""
        nodes = self.runtime.nodes
        if nodes <= 1:
            return 0.0
        payload = bytes_per_gpu if bytes_per_gpu is not None else 1 << 18
        return self.cost_model.comm_cost(nodes, payload)

    def scaled(self, count):
        """Scale a per-iteration task count by ``task_scale``."""
        return max(1, int(round(count * self.config.task_scale)))

    def run(self, iterations):
        """Run ``iterations`` iterations and flush all buffers."""
        for index in range(iterations):
            if self.processor is not None:
                self.processor.set_iteration(index)
            else:
                self.runtime.set_iteration(index)
            self.iteration(index)
        if self.processor is not None:
            self.processor.flush()
        return self.runtime

    def throughput(self, warmup):
        return self.runtime.throughput(warmup)


#: The application plugin point (see :mod:`repro.registry`): the same
#: registry pattern as tracing backends and config profiles.
APP_REGISTRY = Registry("application")


def register_app(cls):
    """Class decorator recording applications by name."""
    APP_REGISTRY.register(cls.name, cls)
    return cls


def get_app(name):
    """Look up an application class by name.

    The registry raises a uniform error naming the known applications
    for unknown names; use :func:`build_app` to construct an instance
    with :class:`AppConfig` keywords in one call.
    """
    return APP_REGISTRY[name]


def build_app(name, **kwargs):
    """Construct an application by name with :class:`AppConfig` kwargs."""
    return get_app(name)(AppConfig(**kwargs))


class _CaptureExecutor:
    """Collects tasks instead of executing them."""

    def __init__(self):
        self.tasks = []

    def execute_task(self, task):
        self.tasks.append(task)


def capture_app_stream(app, num_tasks):
    """The first ``num_tasks`` an (untraced) application instance issues
    from iteration 0 on, as ``[(iteration, task)]``."""
    cap = _CaptureExecutor()
    # Route the app's tasks into the capture buffer. Array-layer apps
    # (cfd) bound their executor at setup, so rebind that too; setup
    # tasks already issued stay out of the stream.
    app.executor = cap
    if hasattr(app, "ctx"):
        app.ctx.executor = cap
    out = []
    index = 0
    while len(cap.tasks) < num_tasks:
        start = len(cap.tasks)
        app.iteration(index)
        out.extend((index, task) for task in cap.tasks[start:])
        index += 1
    return out[:num_tasks]


def capture_stream(app_name, num_tasks, gpus=4, task_scale=0.1):
    """The first ``num_tasks`` of an application's stream, as
    ``[(iteration, task)]``.

    Captured once, up front, so every deployment a suite compares is fed
    the *identical* stream. ``"jacobi"`` names the Figure 1 array program
    (not a registered :class:`Application`).
    """
    if app_name == "jacobi":
        # The Figure 1 array program drives its executor directly.
        cap = _CaptureExecutor()
        jacobi_task_stream(cap, RegionForest(), iterations=num_tasks)
        out = [(0, task) for task in cap.tasks[:num_tasks]]
    else:
        out = capture_app_stream(
            build_app(
                app_name,
                mode="untraced",
                gpus=gpus,
                task_scale=task_scale,
                keep_task_log=False,
            ),
            num_tasks,
        )
    if len(out) < num_tasks:
        raise ValueError(
            f"{app_name} produced {len(out)} tasks, wanted {num_tasks}"
        )
    for _, task in out:
        # Pre-warm the per-task signature caches, so no consumer of the
        # shared Task objects pays the one-time signature builds for the
        # ones that run after it.
        task.signature()
    return out
