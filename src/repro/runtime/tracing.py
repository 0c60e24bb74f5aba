"""Trace memoization engine (Legion's dynamic tracing [24]).

The engine implements the ``tbegin(id)``/``tend(id)`` interface described in
Section 2 of the paper. The first time a trace id is executed, the engine
*records*: every task inside the trace runs through the full dependence
analysis (at slightly higher cost, alpha_m) while the engine captures the
task signatures and the intra-trace dependence edges. On subsequent
executions of the same id, the engine *validates* that the issued sequence
is identical (same tasks, same region arguments -- the condition from
Section 2) and *replays* the memoized analysis at alpha_r per task plus a
constant issuance overhead.

A trace whose second execution issues a different sequence is an invalid
trace: depending on policy the engine raises
:class:`~repro.runtime.errors.TraceMismatchError` (Legion's debug behavior)
or falls back to the full dependence analysis (the production behavior the
paper describes).
"""

from repro.runtime.errors import TraceMismatchError, TraceNestingError


class TraceTemplate:
    """The memoized result of recording one trace."""

    __slots__ = ("trace_id", "signatures", "internal_edges", "replays", "recorded_at")

    def __init__(self, trace_id):
        self.trace_id = trace_id
        # Tuple of task signatures, in issue order.
        self.signatures = []
        # List of (earlier_index, later_index) intra-trace dependence edges.
        self.internal_edges = []
        self.replays = 0
        self.recorded_at = None

    @property
    def length(self):
        return len(self.signatures)

    def __repr__(self):
        return (
            f"TraceTemplate(id={self.trace_id!r}, len={self.length}, "
            f"replays={self.replays})"
        )


class TraceStatus:
    """Engine state machine values."""

    IDLE = "idle"
    RECORDING = "recording"
    REPLAYING = "replaying"


class TracingEngine:
    """Records, validates, and replays traces.

    The engine is driven by the runtime: ``begin(trace_id)`` switches to
    recording or replaying depending on whether the id has been seen;
    ``observe_task`` is called for every task issued inside a trace; ``end``
    finalizes the recording or returns the validated replay batch.
    """

    def __init__(self, mismatch_policy="error"):
        if mismatch_policy not in ("error", "fallback"):
            raise ValueError("mismatch_policy must be 'error' or 'fallback'")
        self.mismatch_policy = mismatch_policy
        self.templates = {}
        self.status = TraceStatus.IDLE
        self.current_id = None
        self._replay_buffer = []
        self._replay_position = 0
        self._recording_template = None
        # Statistics.
        self.traces_recorded = 0
        self.traces_replayed = 0
        self.tasks_recorded = 0
        self.tasks_replayed = 0
        self.mismatches = 0

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def begin(self, trace_id):
        """Enter a trace. Returns the new status (RECORDING or REPLAYING)."""
        if self.status is not TraceStatus.IDLE:
            raise TraceNestingError(
                f"tbegin({trace_id!r}) while already in trace {self.current_id!r}"
            )
        self.current_id = trace_id
        if trace_id in self.templates:
            self.status = TraceStatus.REPLAYING
            self._replay_buffer = []
            self._replay_position = 0
        else:
            self.status = TraceStatus.RECORDING
            self._recording_template = TraceTemplate(trace_id)
        return self.status

    def observe_task(self, task):
        """Feed one task issued inside the current trace.

        While recording this appends the signature; while replaying it
        validates the signature against the template. Returns the current
        status; raises or signals fallback on mismatch.
        """
        if self.status is TraceStatus.RECORDING:
            self._recording_template.signatures.append(task.signature())
            self.tasks_recorded += 1
            return TraceStatus.RECORDING
        if self.status is TraceStatus.REPLAYING:
            template = self.templates[self.current_id]
            pos = self._replay_position
            sig = task.signature()
            if pos >= template.length or template.signatures[pos] != sig:
                self.mismatches += 1
                expected = (
                    template.signatures[pos] if pos < template.length else None
                )
                if self.mismatch_policy == "error":
                    raise TraceMismatchError(self.current_id, pos, expected, sig)
                return self._fall_back()
            self._replay_buffer.append(task)
            self._replay_position += 1
            return TraceStatus.REPLAYING
        raise TraceNestingError("task observed outside of any trace")

    def end(self, trace_id):
        """Leave a trace.

        Returns a tuple ``(kind, payload)``:

        * ``("recorded", template)`` -- the trace was recorded,
        * ``("replayed", (template, tasks))`` -- the trace was validated and
          the buffered tasks should be replayed,
        * ``("aborted", tasks)`` -- a fallback occurred; the returned tasks
          must be analyzed normally.
        """
        if self.current_id != trace_id:
            raise TraceNestingError(
                f"tend({trace_id!r}) does not match open trace {self.current_id!r}"
            )
        if self.status is TraceStatus.RECORDING:
            template = self._recording_template
            template.signatures = tuple(template.signatures)
            self.templates[trace_id] = template
            self.traces_recorded += 1
            self._reset()
            return ("recorded", template)
        if self.status is TraceStatus.REPLAYING:
            template = self.templates[trace_id]
            if self._replay_position != template.length:
                self.mismatches += 1
                if self.mismatch_policy == "error":
                    raise TraceMismatchError(
                        trace_id,
                        self._replay_position,
                        template.signatures[self._replay_position],
                        None,
                    )
                tasks = self._replay_buffer
                self._reset()
                return ("aborted", tasks)
            template.replays += 1
            self.traces_replayed += 1
            self.tasks_replayed += template.length
            tasks = self._replay_buffer
            self._reset()
            return ("replayed", (template, tasks))
        raise TraceNestingError(f"tend({trace_id!r}) with no open trace")

    def _fall_back(self):
        """Abort the current replay; buffered tasks revert to full analysis."""
        self.status = TraceStatus.IDLE
        return TraceStatus.IDLE

    def _reset(self):
        self.status = TraceStatus.IDLE
        self.current_id = None
        self._replay_buffer = []
        self._replay_position = 0
        self._recording_template = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def idle(self):
        return self.status is TraceStatus.IDLE

    def take_fallback_tasks(self):
        """After a fallback signalled by ``observe_task``, drain the buffer."""
        tasks = self._replay_buffer
        self._replay_buffer = []
        self._replay_position = 0
        self.current_id = None
        return tasks
