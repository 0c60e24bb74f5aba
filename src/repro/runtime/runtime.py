"""The runtime front-end: task execution, tracing, and virtual-time costs.

:class:`Runtime` glues together the dependence analyzer, the tracing
engine, and the pipeline cost model into the interface the paper's
applications and Apophenia use:

* ``execute_task(task)`` -- issue a task,
* ``begin_trace(id)`` / ``end_trace(id)`` -- Legion's ``tbegin``/``tend``,
* ``fence()`` -- execution fence,
* ``set_iteration(i)`` -- marks application iteration boundaries so the
  experiment harness can compute steady-state throughput.

The runtime models one node of the target machine under dynamic control
replication: every node sees the same application-level stream, and each
operation is an index launch with one point per GPU, so the per-node
analysis cost of an operation is ``points_per_node * alpha``. Costs are
charged in virtual time on the three-stage pipeline; see
:mod:`repro.runtime.pipeline`.
"""

from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.deps import DependenceAnalyzer
from repro.runtime.pipeline import Pipeline
from repro.runtime.region import RegionForest
from repro.runtime.machine import PERLMUTTER
from repro.runtime.tracing import TracingEngine, TraceStatus


class TaskMode:
    """How a task's dependence analysis was performed."""

    ANALYZED = 0  # full dynamic analysis (untraced)
    RECORDED = 1  # full analysis + trace recording
    REPLAYED = 2  # memoized replay


class TaskRecord:
    """Per-task execution record kept for experiment post-processing."""

    __slots__ = ("uid", "name", "iteration", "mode", "exec_done")

    def __init__(self, uid, name, iteration, mode, exec_done):
        self.uid = uid
        self.name = name
        self.iteration = iteration
        self.mode = mode
        self.exec_done = exec_done


class Runtime:
    """A single control-replicated node of a Legion-like runtime.

    Parameters
    ----------
    cost_model:
        :class:`~repro.runtime.costmodel.CostModel`; defaults to the
        paper-calibrated model.
    machine:
        :class:`~repro.runtime.machine.MachineConfig`.
    gpus:
        Total GPUs in the run; determines node count and per-node width.
    auto_tracing:
        True when Apophenia fronts this runtime (task launches cost 12 us
        instead of 7 us, Section 6.3).
    mismatch_policy:
        ``"error"`` or ``"fallback"`` for invalid traces.
    analysis_mode:
        ``"full"`` runs the real dependence analysis for every task
        (used by correctness tests); ``"fast"`` charges virtual costs but
        skips building dependence edges (used by large benchmark sweeps --
        tracing decisions are unaffected because they depend only on the
        task stream).
    keep_task_log:
        Record a :class:`TaskRecord` per task and each iteration's end
        (needed for Figure 10 style timelines, :meth:`traced_fraction`
        and :meth:`throughput`). Disable for very long runs to save
        memory.
    """

    def __init__(
        self,
        cost_model=DEFAULT_COST_MODEL,
        machine=PERLMUTTER,
        gpus=1,
        auto_tracing=False,
        mismatch_policy="error",
        analysis_mode="full",
        keep_task_log=True,
    ):
        if analysis_mode not in ("full", "fast"):
            raise ValueError("analysis_mode must be 'full' or 'fast'")
        self.cost_model = cost_model
        self.machine = machine
        self.gpus = gpus
        self.nodes = machine.nodes_for(gpus)
        self.points_per_node = max(1, min(gpus, machine.gpus_per_node))
        self.auto_tracing = auto_tracing
        self.analysis_mode = analysis_mode
        self.keep_task_log = keep_task_log

        self.forest = RegionForest()
        self.analyzer = DependenceAnalyzer()
        self.engine = TracingEngine(mismatch_policy=mismatch_policy)
        self.pipeline = Pipeline()

        # Per-operation analysis costs at this node count. Dependence
        # analysis in Legion is charged per operation (index launch), with
        # cross-shard exchange inflating the cost as the machine grows.
        self._analysis_cost = cost_model.analysis_at_scale(self.nodes)
        self._memo_cost = cost_model.memo_at_scale(self.nodes)
        self._replay_cost = cost_model.replay_cost

        self.current_iteration = 0
        self.iteration_end = {}
        self.task_log = []
        self.dependences = {}  # uid -> TaskDependencies (full mode only)
        self._trace_aborted = False
        self._record_uids = []
        self.tasks_launched = 0

    # ------------------------------------------------------------------
    # Launch accounting (used by the Apophenia front-end)
    # ------------------------------------------------------------------
    def charge_launch(self):
        """Charge the application-stage launch cost for one task.

        Returns the virtual time at which the launch completed. Apophenia
        calls this when the application hands it a task, *before* deciding
        whether to buffer or forward it.
        """
        self.tasks_launched += 1
        return self.pipeline.launch(self.cost_model.launch(self.auto_tracing))

    # ------------------------------------------------------------------
    # Public task interface
    # ------------------------------------------------------------------
    def execute_task(self, task, charge_launch=True):
        """Issue one task to the runtime.

        ``charge_launch=False`` skips the application-stage charge for
        tasks whose launch was already accounted via
        :meth:`charge_launch`.
        """
        if charge_launch:
            launched = self.charge_launch()
        else:
            launched = self.pipeline.app_clock

        status = self.engine.status
        if status is TraceStatus.RECORDING:
            self.engine.observe_task(task)
            self._record_uids.append(task.uid)
            self._run_task(task, self._memo_cost, TaskMode.RECORDED, launched)
            return
        if status is TraceStatus.REPLAYING:
            result = self.engine.observe_task(task)
            if result is TraceStatus.REPLAYING:
                # Buffered for batch replay at end_trace; nothing to do yet.
                return
            # Fallback: validation failed. Analyze the buffered prefix and
            # the current task at full cost.
            self._trace_aborted = True
            for buffered in self.engine.take_fallback_tasks():
                self._run_task(
                    buffered, self._analysis_cost, TaskMode.ANALYZED, launched
                )
            self._run_task(task, self._analysis_cost, TaskMode.ANALYZED, launched)
            return
        self._run_task(task, self._analysis_cost, TaskMode.ANALYZED, launched)

    def begin_trace(self, trace_id):
        """Legion's ``tbegin(id)``."""
        status = self.engine.begin(trace_id)
        if status is TraceStatus.RECORDING:
            self._record_uids = []
        return status

    def end_trace(self, trace_id):
        """Legion's ``tend(id)``."""
        if self._trace_aborted:
            # The replay already fell back to full analysis; swallow the end.
            self._trace_aborted = False
            self.engine.current_id = None
            self.engine.status = TraceStatus.IDLE
            return "aborted"
        kind, payload = self.engine.end(trace_id)
        if kind == "recorded":
            template = payload
            if self.analysis_mode == "full":
                template.internal_edges = self._internal_edges(self._record_uids)
            self._record_uids = []
            return kind
        if kind == "replayed":
            template, tasks = payload
            self._replay(template, tasks)
            return kind
        # Aborted at end (length mismatch): analyze buffered tasks normally.
        for buffered in payload:
            self._run_task(
                buffered,
                self._analysis_cost,
                TaskMode.ANALYZED,
                self.pipeline.app_clock,
            )
        return kind

    def fence(self):
        """Execution fence: later tasks depend on everything issued so far."""
        if self.analysis_mode == "full":
            deps = self.analyzer.fence(-1, [r.uid for r in self.task_log[-64:]])
            self.dependences[deps.uid] = deps
        # A fence serializes the pipeline: execution must drain.
        now = self.pipeline.now
        self.pipeline.analysis_clock = now
        self.pipeline.exec_clock = now

    def set_iteration(self, iteration):
        """Mark the start of application iteration ``iteration``."""
        self.current_iteration = iteration

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_task(self, task, analysis_cost, mode, ready_at):
        if self.analysis_mode == "full":
            deps = self.analyzer.analyze(task)
            self.dependences[task.uid] = deps
        analyzed = self.pipeline.analyze(ready_at, analysis_cost)
        exec_done = self.pipeline.execute(analyzed, task.exec_cost + task.comm_cost)
        if self.keep_task_log:
            self._log(task, mode, exec_done)

    def _replay(self, template, tasks):
        """Charge a validated trace replay and execute its tasks.

        The replay pays a constant issuance overhead plus a per-task
        issuance component *serially* before tasks replay at alpha_r each
        (Section 3's constant ``c``; the per-task issuance term is what
        makes very long traces expose latency under strong scaling,
        Section 6.2).
        """
        cm = self.cost_model
        issue = cm.replay_issue_cost(len(tasks))
        ready = self.pipeline.app_clock
        # Template instantiation stalls the execution stage: nothing runs
        # while the replay's events and instances materialize.
        self.pipeline.execute(ready, issue)
        for task in tasks:
            if self.analysis_mode == "full":
                # Idealized replay: re-derive state updates so post-trace
                # analysis stays exact, while charging only replay costs.
                deps = self.analyzer.analyze(task)
                self.dependences[task.uid] = deps
            analyzed = self.pipeline.analyze(ready, self._replay_cost)
            exec_done = self.pipeline.execute(
                analyzed, task.exec_cost + task.comm_cost
            )
            if self.keep_task_log:
                self._log(task, TaskMode.REPLAYED, exec_done)

    def _internal_edges(self, uids):
        """Intra-trace dependence edges (pairs of trace-local indices)."""
        index_of = {uid: i for i, uid in enumerate(uids)}
        edges = []
        for uid in uids:
            deps = self.dependences.get(uid)
            if deps is None:
                continue
            for dep_uid in deps.depends_on:
                if dep_uid in index_of and index_of[dep_uid] < index_of[uid]:
                    edges.append((index_of[dep_uid], index_of[uid]))
        return sorted(edges)

    def _log(self, task, mode, exec_done):
        """Log a task and its iteration's end (``keep_task_log`` only:
        both grow for the runtime's whole life)."""
        # Buffered tasks are forwarded long after they were launched; the
        # iteration recorded at launch time (stamped into provenance by
        # set_iteration/charge_launch) is the meaningful one.
        iteration = (
            task.provenance
            if isinstance(task.provenance, int)
            else self.current_iteration
        )
        prev = self.iteration_end.get(iteration)
        if prev is None or exec_done > prev:
            self.iteration_end[iteration] = exec_done
        self.task_log.append(
            TaskRecord(task.uid, task.name, iteration, mode, exec_done)
        )

    def _require_log(self, reading):
        if not self.keep_task_log:
            raise ValueError(
                f"{reading} needs a runtime built with keep_task_log=True"
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def total_time(self):
        """Virtual completion time of everything issued so far."""
        return self.pipeline.now

    def throughput(self, warmup_iterations, end_iteration=None):
        """Steady-state iterations/second after ``warmup_iterations``.

        ``end_iteration`` (exclusive) bounds the measurement window; the
        experiment harness uses it to exclude the end-of-run flush, where
        tasks buffered for an in-progress trace match drain untraced.
        Raises :class:`ValueError` on a runtime built without
        ``keep_task_log``, which records no iteration's end.
        """
        self._require_log("throughput")
        if not self.iteration_end:
            return 0.0
        iterations = sorted(self.iteration_end)
        done = [
            i
            for i in iterations
            if i >= warmup_iterations
            and (end_iteration is None or i < end_iteration)
        ]
        if len(done) < 2:
            raise ValueError(
                f"need at least 2 post-warmup iterations, have {len(done)}"
            )
        t0 = self.iteration_end[done[0]]
        t1 = self.iteration_end[done[-1]]
        if t1 <= t0:
            return float("inf")
        return (done[-1] - done[0]) / (t1 - t0)

    def traced_fraction(self):
        """Fraction of logged tasks that were recorded or replayed.

        Raises :class:`ValueError` on a runtime built without
        ``keep_task_log``: it logged nothing, so any fraction would be
        made up."""
        self._require_log("traced_fraction")
        if not self.task_log:
            return 0.0
        traced = sum(1 for r in self.task_log if r.mode != TaskMode.ANALYZED)
        return traced / len(self.task_log)
