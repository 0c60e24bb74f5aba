"""Three-stage virtual-time pipeline simulator.

Legion employs a pipelined architecture (Section 5.2 of the paper): a task
flows through (1) the *application* phase where it is launched, (2) the
*analysis* phase where it is analyzed or replayed as part of a trace, and
(3) the *execution* phase where it runs on a GPU.

Each stage is a serial resource per node. The simulator keeps one clock per
stage; a task enters a stage no earlier than it left the previous one and
no earlier than the stage is free. This reproduces the performance
phenomena the paper's evaluation turns on:

* when per-task analysis cost exceeds per-task execution time, the analysis
  stage becomes the bottleneck and runtime overhead is *exposed*;
* tracing shrinks the analysis cost by ~10x, re-hiding the overhead;
* the application stage runs far ahead of the analysis stage (launching is
  ~100x cheaper than analyzing), which is why Apophenia can buffer an
  entire trace before issuing it without stalling the pipeline;
* very long trace replays pay a serial issuance latency at replay start,
  which strong scaling exposes (FlexFlow, Section 6.2).

Execution-stage costs model the per-GPU time of an index launch (all points
run in parallel across GPUs, so the cost is the per-point kernel time),
plus any exposed communication.
"""


class PipelineStats:
    """Aggregate virtual-time accounting for one simulated node."""

    __slots__ = (
        "app_busy",
        "analysis_busy",
        "exec_busy",
        "tasks",
        "analysis_stalls",
        "exec_stalls",
    )

    def __init__(self):
        self.app_busy = 0.0
        self.analysis_busy = 0.0
        self.exec_busy = 0.0
        self.tasks = 0
        self.analysis_stalls = 0.0
        self.exec_stalls = 0.0


class Pipeline:
    """Virtual-time model of one node's task pipeline."""

    def __init__(self):
        self.app_clock = 0.0
        self.analysis_clock = 0.0
        self.exec_clock = 0.0
        self.stats = PipelineStats()

    def launch(self, launch_cost):
        """Charge the application stage for one task launch.

        Returns the virtual time at which the launch completed.
        """
        self.app_clock += launch_cost
        self.stats.app_busy += launch_cost
        return self.app_clock

    def analyze(self, ready_at, analysis_cost):
        """Run a task through the analysis stage.

        ``ready_at`` is the time the task became visible to the analysis
        (its launch completion, or later for buffered tasks).
        """
        start = max(self.analysis_clock, ready_at)
        if start > self.analysis_clock:
            self.stats.analysis_stalls += start - self.analysis_clock
        self.analysis_clock = start + analysis_cost
        self.stats.analysis_busy += analysis_cost
        return self.analysis_clock

    def execute(self, ready_at, exec_cost):
        """Run a task through the execution stage."""
        start = max(self.exec_clock, ready_at)
        if start > self.exec_clock:
            self.stats.exec_stalls += start - self.exec_clock
        self.exec_clock = start + exec_cost
        self.stats.exec_busy += exec_cost
        self.stats.tasks += 1
        return self.exec_clock

    @property
    def now(self):
        """Completion time of all work issued so far."""
        return max(self.app_clock, self.analysis_clock, self.exec_clock)

    def advance_app(self, until):
        """Advance the application clock to at least ``until`` (a stall)."""
        if until > self.app_clock:
            self.app_clock = until
