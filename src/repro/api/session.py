"""The deployment-agnostic session facade.

One lifecycle, whatever serves it::

    import repro.api as api

    with api.open_session("tenant-a") as session:      # standalone
        for task in tasks:
            session.submit(task)
        session.flush()
        print(session.stats().replay_fraction)

    service = api.ApopheniaService(api.build_config(profile="service"))
    with api.open_session("tenant-a", backend=service) as session:
        ...                                            # same code, shared
                                                       # mining backend

"Standalone processor", "lane in a shared service", and "N-node
control-replicated session" are interchangeable **tracing backends**
behind the :class:`TracingBackend` protocol: anything with
``backend_kind``, ``open_session``, ``close_session``, and
``backend_stats``. Exactly three classes implement it, all subclasses of
the one :class:`~repro.service.service.SessionPool`:
:class:`~repro.service.service.StandaloneBackend` (a private processor
per session), :class:`~repro.service.ApopheniaService` (many sessions
over one shared executor), and
:class:`~repro.service.replicated.ReplicatedBackend` (each session on N
control-replicated node processors sharing a per-session
``IngestCoordinator`` -- the Section 5.1 deployment). All three return
the same :class:`~repro.service.service.SessionHandle` shape, which is
what the facade binds.

The facade is decision-neutral by construction: it adds no buffering, no
reordering, and no configuration of its own -- ``submit`` is one method
call down to the backend's serving path -- so the tbegin/tend stream a
session produces is byte-identical to driving its processor directly
(property-tested in ``tests/test_api.py``).
"""

import itertools
from typing import Protocol, runtime_checkable

from repro.api.config import build_config, env_overrides, validate_config
from repro.errors import SessionClosedError
from repro.persist import dehydrate
from repro.registry import Registry
from repro.service.replicated import ReplicatedBackend
from repro.service.service import (
    ApopheniaService,
    StandaloneBackend,
    collect_session_stats,
)
from repro.stablehash import stable_digest


@runtime_checkable
class TracingBackend(Protocol):
    """What the facade needs from anything that can serve sessions.

    Implemented by the three :class:`~repro.service.service.SessionPool`
    subclasses. ``open_session`` returns a
    :class:`~repro.service.service.SessionHandle`: ``execute_task``,
    ``set_iteration``, ``flush``, ``stats`` (the replayer counters),
    ``decision_trace``, plus the ``processor`` / ``processors`` /
    ``coordinator`` / ``closed`` shape the stats, snapshot, persistence
    and trace-capture layers read.
    """

    backend_kind: str
    config: object  # the default per-session ApopheniaConfig
    state_store: object  # the spill tier (a SessionStateStore), or None

    def open_session(self, session_id, runtime=None, config=None,
                     state=None):
        ...

    def close_session(self, session_id):
        ...

    @property
    def backend_stats(self):
        ...


#: The tracing-backend plugin point: name -> ``factory(config) ->
#: TracingBackend``. Client code keeps calling
#: ``open_session(backend="<name>")`` whichever deployment serves it.
TRACING_BACKENDS = Registry("tracing backend", {
    "standalone": StandaloneBackend,
    "service": ApopheniaService,
    "replicated": ReplicatedBackend,
})


class SessionSnapshot:
    """A deterministic summary of everything a session has decided.

    Two runs of the same token stream that made byte-identical
    tbegin/tend decisions produce equal :attr:`decisions`, whatever
    backend served them -- this is the object the decision-stream parity
    property tests compare.
    """

    __slots__ = ("session_id", "backend", "decision_trace", "replayer")

    def __init__(self, session_id, backend, decision_trace, replayer):
        self.session_id = session_id
        self.backend = backend
        self.decision_trace = decision_trace
        self.replayer = replayer

    @classmethod
    def of(cls, source, session_id=None, backend="standalone"):
        """Snapshot anything that serves a stream -- a session handle or
        a hand-driven processor: both carry ``decision_trace()`` and read
        as a :class:`~repro.metrics.SessionStats`, whose
        ``replayer_counters()`` are the counters recorded."""
        return cls(
            session_id,
            backend,
            tuple(source.decision_trace()),
            collect_session_stats(source).replayer_counters(),
        )

    @property
    def decisions(self):
        """The backend-independent part: trace boundaries + counters."""
        return (self.decision_trace, self.replayer)

    def stable_digest(self):
        """Process-stable hex digest of :attr:`decisions`.

        ``hash(snapshot)`` is randomized per process (decision traces
        contain task-signature strings, so ``PYTHONHASHSEED`` applies);
        this digest is not, so snapshots taken in different processes --
        replica nodes, future ``multiprocessing`` shards, a recorded
        run compared against a live one -- can be compared by value
        without shipping the full trace.
        """
        return stable_digest(self.decisions)

    def __eq__(self, other):
        if not isinstance(other, SessionSnapshot):
            return NotImplemented
        return self.decisions == other.decisions

    def __hash__(self):
        # Intra-process only (dict/set membership); cross-process
        # comparison goes through stable_digest() above.
        return hash(self.decisions)  # replint: allow[RPL003] intra-process membership hash; cross-process identity is stable_digest()

    def __repr__(self):
        return (
            f"SessionSnapshot({self.session_id!r}, {self.backend}, "
            f"traces={len(self.decision_trace)}, "
            f"tasks={self.replayer[0]})"
        )


_AUTO_IDS = itertools.count()


def _attach_config(backend_obj, config, profile, env, overrides):
    """Per-session config when attaching to an existing backend.

    An explicit ``config`` or ``profile`` names the base outright. Bare
    ``overrides`` / ``env`` layer on the *backend's own* config -- a
    tenant tweaking one knob on a tuned service must not be silently
    rebased onto the default profile. Like the explicit-config path of
    :func:`build_config`, ambient ``os.environ`` is not consulted here;
    an ``env`` mapping applies only when passed.
    """
    if config is not None or profile is not None:
        return build_config(profile=profile, config=config, env=env,
                            **overrides)
    base = backend_obj.config
    if overrides:
        base = base.with_overrides(**overrides)
    if env is not None:
        layered = env_overrides(env)
        if layered:
            base = base.with_overrides(**layered)
    return validate_config(base)


class Session:
    """One open tracing session, whatever backend serves it.

    Usable as a context manager (``close`` on exit). The lifecycle is
    ``submit(task)`` / ``set_iteration`` / ``flush()`` / ``stats()`` /
    ``snapshot()`` / ``close()``; ``processor`` and ``runtime`` remain
    available as escape hatches for code that genuinely needs the
    deployment-specific object underneath.
    """

    __slots__ = ("session_id", "backend", "handle", "closed", "recorder")

    def __init__(self, session_id, backend, handle):
        self.session_id = session_id
        self.backend = backend
        self.handle = handle
        self.closed = False
        self.recorder = None

    def _check_open(self):
        """Raise :class:`SessionClosedError` if this facade is closed.

        Two facts, two marks: ``handle.closed`` says the backend no
        longer serves the session (``close()``, or an LRU eviction under
        the client), and guards the serving calls itself -- ``submit`` /
        ``set_iteration`` / ``flush`` raise from there, with the session
        key, whichever side closed first. ``closed`` says the client gave
        this facade up, and guards the introspection calls: an evicted
        session's final counters and decisions stay readable until then.
        """
        if self.closed:
            raise SessionClosedError(self.session_id)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, task):
        """Issue one task through the session's tracing pipeline."""
        if self.recorder is not None:
            # Recorded before the serving path sees the task: capture
            # observes the stream as issued and cannot perturb decisions.
            self.recorder.on_task(task)
        self.handle.execute_task(task)

    #: Alias so a :class:`Session` is a drop-in executor anywhere an
    #: ``execute_task``-shaped object is expected (runtime, processor,
    #: service handle, application base class).
    execute_task = submit

    def submit_many(self, tasks):
        """Issue tasks in order; returns how many were submitted.

        Exactly a ``submit`` loop -- no batching, reordering, or
        buffering of its own -- so the decision stream is byte-identical
        to calling :meth:`submit` per task (parity-tested). Exists so
        replay drivers and batch-shaped applications have one call for
        "here is the next stretch of the stream".
        """
        self._check_open()
        count = 0
        for task in tasks:
            self.submit(task)
            count += 1
        return count

    def set_iteration(self, iteration):
        if self.recorder is not None:
            self.recorder.on_iteration(iteration)
        self.handle.set_iteration(iteration)

    def flush(self):
        """Drain all buffered tasks (program end, or a fence)."""
        if self.recorder is not None:
            self.recorder.on_flush()
        self.handle.flush()

    # ------------------------------------------------------------------
    # Trace capture (see repro.trace)
    # ------------------------------------------------------------------
    def record_to(self, recorder):
        """Attach a :class:`~repro.trace.TraceRecorder` to this session.

        From here on, every ``submit`` / ``set_iteration`` / ``flush``
        is captured. One recorder per session; returns the recorder.
        Raises :class:`ValueError` once the session has seen a task (a
        warm start resumes its state's count): a trace re-drives from a
        cold session.
        """
        self._check_open()
        if self.recorder is not None:
            raise ValueError(
                f"session {self.session_id!r} is already being recorded"
            )
        seen = self.stats().tasks_seen
        if seen:
            raise ValueError(
                f"session {self.session_id!r} is not cold ({seen} tasks "
                f"seen); a trace re-drives from a cold session, so record "
                f"from the start"
            )
        recorder.on_open(self)
        self.recorder = recorder
        return recorder

    def stop_recording(self):
        """Finalize and detach the recorder; returns it (or ``None``).

        Flushes first -- while still recording, so the trace ends on the
        same fence the capture session's final decisions reflect -- then
        stamps the recorder's footer with this session's snapshot.
        ``close()`` calls this automatically for a still-attached
        recorder.
        """
        if self.recorder is None:
            return None
        self._check_open()
        self.flush()
        recorder, self.recorder = self.recorder, None
        recorder.on_close(self.snapshot(), self.stats())
        return recorder

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self):
        """The uniform :class:`~repro.metrics.SessionStats` snapshot."""
        self._check_open()
        return collect_session_stats(self.handle)

    def snapshot(self):
        """Deterministic :class:`SessionSnapshot` of all decisions."""
        self._check_open()
        return SessionSnapshot.of(
            self.handle, self.session_id, self.backend.backend_kind
        )

    def dehydrate(self):
        """Snapshot the session's learned state as a
        :class:`~repro.persist.SessionState`.

        Flushes first (the snapshot sits on a fence), so taking one is
        observable in the decision stream only as that flush. The state
        round-trips bytes-for-bytes (``dumps``/``loads``) and warm-starts
        a future ``open_session(..., state=...)`` on any backend.
        """
        self._check_open()
        return dehydrate(self.handle)

    def decision_trace(self):
        self._check_open()
        return self.handle.decision_trace()

    @property
    def processor(self):
        """The underlying :class:`ApopheniaProcessor` (escape hatch)."""
        return self.handle.processor

    @property
    def runtime(self):
        return self.handle.runtime

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self):
        """Flush and release the session; idempotent.

        Tolerates the backend having closed the session first (service
        LRU eviction): the facade then only marks itself closed.
        """
        if self.closed:
            return
        try:
            if self.recorder is not None and not self.handle.closed:
                self.stop_recording()
        finally:
            self.recorder = None
            self.closed = True
            if not self.handle.closed:
                self.backend.close_session(self.session_id)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return (
            f"Session({self.session_id!r}, "
            f"backend={self.backend.backend_kind}, {state})"
        )


def open_session(session_id=None, *, backend="standalone", config=None,
                 profile=None, runtime=None, env=None, recorder=None,
                 state=None, **overrides):
    """Open a tracing session on any deployment; returns a :class:`Session`.

    Parameters
    ----------
    session_id:
        Tenant identity on the backend; auto-generated when omitted.
    backend:
        A :data:`TRACING_BACKENDS` name (``"standalone"``, ``"service"``)
        -- the facade then builds a private backend from the resolved
        config -- or an existing :class:`TracingBackend` instance (for
        example a shared :class:`~repro.service.ApopheniaService`), which
        the facade attaches to without owning.
    config / profile / overrides / env:
        Configuration layering, resolved by
        :func:`repro.api.config.build_config`. When attaching to an
        existing backend: with no explicit configuration the backend's
        own config governs (passing nothing really means "the service
        decides", exactly as ``ApopheniaService.open_session`` behaves),
        and keyword overrides / an ``env`` mapping without a base are
        layered on top of the *backend's* config -- never silently
        rebased onto a default profile.
    runtime:
        An application-owned runtime; omitted, the backend creates one.
    recorder:
        Optional :class:`~repro.trace.TraceRecorder` attached from the
        first task (or ``session.record_to`` before it); ``close()``
        finalizes it. Refused, before anything opens, for a session
        that would warm-start (``state``, or a state the backend's spill
        tier holds for ``session_id``): a trace re-drives from a cold
        session.
    state:
        Optional :class:`~repro.persist.SessionState` (from
        ``Session.dehydrate()``) to warm-start from: the new session
        resumes the snapshot's learned candidates, scores, and op clocks
        on any backend -- replicated sessions hydrate every node replica
        identically. The snapshot's decision-relevant config must match
        the session's.
    """
    if session_id is None:
        session_id = f"session-{next(_AUTO_IDS)}"
    explicit = (config is not None or profile is not None or bool(overrides)
                or env is not None)
    if isinstance(backend, str):
        factory = TRACING_BACKENDS.resolve(backend)
        cfg = build_config(profile=profile, config=config, env=env,
                           **overrides)
        backend_obj = factory(cfg)
        session_config = None  # the backend was built from it already
    else:
        backend_obj = backend
        session_config = (
            _attach_config(backend_obj, config, profile, env, overrides)
            if explicit else None
        )
    spilled = backend_obj.state_store
    if recorder is not None and (
        state is not None or (spilled is not None and session_id in spilled)
    ):
        # Refused before the backend admits anything: admission may evict
        # another tenant and takes a spilled state out of the store.
        raise ValueError(
            f"a recorder needs a cold session, and session {session_id!r} "
            f"would warm-start (from state= or the backend's spill tier)"
        )
    handle = backend_obj.open_session(
        session_id,
        runtime=runtime,
        config=session_config,
        state=state,
    )
    session = Session(session_id, backend_obj, handle)
    if recorder is not None:
        session.record_to(recorder)
    return session


__all__ = [
    "Session",
    "SessionClosedError",
    "SessionSnapshot",
    "StandaloneBackend",
    "TRACING_BACKENDS",
    "TracingBackend",
    "open_session",
]
