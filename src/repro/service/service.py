"""The session core, and the two single-node backends built on it.

Every tracing backend is a :class:`SessionPool`: a table of open
sessions, each a :class:`SessionHandle` over one or more
:class:`~repro.core.processor.ApopheniaProcessor` replicas. The pool
owns what every deployment does the same way -- the open template, the
one exception-safe ``close_session``, and the ``backend_stats`` fold over
the marks of :mod:`repro.metrics` -- and a backend supplies ``_build``
(what serves a session) plus whatever is genuinely its own. The table is
the only place a session id leads anywhere: ``sessions[sid]`` -> handle
-> ``processors`` -> (runtime, executor or lane, coordinator), each built
for that handle and referenced by nothing else, so closing, evicting or
refusing a session is dropping the entry -- there is nothing to give back:

* :class:`StandaloneBackend` -- the paper's one Apophenia per
  application: a private executor per session, nothing shared;
* :class:`ApopheniaService` -- N sessions over ONE shared mining executor
  (:class:`~repro.service.executor.SharedJobExecutor`), with LRU
  eviction and the spill tier;
* :class:`~repro.service.replicated.ReplicatedBackend` -- N node replicas
  per session plus an ingest coordinator (Section 5.1).

Sharing the mining backend is what makes the service more than N
processors in a dict: identical windows from different tenants hit the
same memo entry (safe because mining results are pure functions of the
window), so the analysis cost the paper attributes to a single
application is paid once across the whole tenant population.

==================  ====================================================
shared              mining algorithm, cross-session memo, fault plan,
                    the one FIFO ``pump()`` drains
per-session         hasher, finder (history buffer + op clock), replayer
                    (candidate trie + scoring), runtime, and the lane: a
                    ``JobExecutor``'s job ids, breaker and counters
==================  ====================================================

Service sessions are evicted least-recently-used when ``max_sessions``
is exceeded; eviction flushes the victim's buffered tasks first, so no
task is ever dropped. With ``session_state_budget`` set, eviction no
longer *forgets* either: the victim is dehydrated into a token-budgeted
:class:`~repro.persist.SessionStateStore` and re-admission hydrates, so
an evicted tenant warm-starts at its learned steady state instead of
re-mining from scratch. Without the budget (the default) eviction keeps
the historical behaviour -- the tenant restarts cold.
"""

from operator import add

from repro import metrics
from repro.core.jobs import stream_keywords
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.errors import SessionClosedError
from repro.persist import SessionStateStore, dehydrate, hydrate_processor
from repro.runtime.session import session_runtime
from repro.service.executor import SharedJobExecutor


def collect_session_stats(handle):
    """Build a :class:`~repro.metrics.SessionStats` from a backend's
    session handle (what ``TracingBackend.open_session`` returned): every
    field read off the owner its mark names. A hand-driven
    :class:`~repro.core.processor.ApopheniaProcessor` is accepted too
    and reads as the one session of a standalone pool.
    """
    if isinstance(handle, ApopheniaProcessor):
        handle = SessionHandle(
            None, StandaloneBackend(handle.config), [handle],
            coordinator=handle.coordinator,
        )
    pool = handle.backend
    return metrics.SessionStats(**metrics.read({
        "handle": handle,
        "pool": pool,
        "spill": pool.state_store,
        "coordinator": handle.coordinator,
        **metrics.processor_owners(handle.processor),
    }))


def _fold(totals, handle, lifetime_only=False):
    """Fold one session into ``totals`` by each metric's ``fold`` mark:
    the same rule for the open sessions (``backend_stats``) and a closing
    one's lifetime record (``close_session``), so a key means the same
    thing on every backend."""
    stats = collect_session_stats(handle)
    for name, mark in metrics.MARKS.items():
        if mark["fold"] and not (mark["gauge"] and lifetime_only):
            totals[name] = mark["fold"](totals[name], getattr(stats, name))


# ----------------------------------------------------------------------
# The session handle
# ----------------------------------------------------------------------
class SessionHandle:
    """One open session, and the owner of everything that serves it.

    The one handle shape every backend returns and every cross-cutting
    consumer (stats, snapshots, persistence, trace capture, the
    benchmark's tracer) reads: ``session_id``, the owning ``backend``,
    ``processors`` (one per node replica; one for single-node backends),
    the live subset still serving, ``processor`` (the reference replica
    the facade reports), the replica set's ``coordinator`` or ``None``,
    and ``closed``. Runtimes, executors / lanes and the coordinator are
    reached through ``processors`` and live exactly as long as the handle.
    A replica set needs no handle of its own: ``drop_node`` takes a dead
    replica out of the live subset and ``decisions_agree`` checks that
    the live ones issued one stream.

    Serving calls look ``execute_task`` / ``set_iteration`` / ``flush``
    up on each processor at call time; nothing here caches a bound
    method, so instance-level wrappers on a processor stay in the path.
    """

    __slots__ = ("session_id", "backend", "processors", "coordinator",
                 "closed", "_live")

    def __init__(self, session_id, backend, processors, coordinator=None):
        self.session_id = session_id
        self.backend = backend
        self.processors = processors
        self.coordinator = coordinator
        self.closed = False
        self._live = list(processors)

    def _check_open(self):
        if self.closed:
            raise SessionClosedError(self.session_id)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def execute_task(self, task):
        """Issue one task on every live replica, in node order.

        Replicas share the one :class:`~repro.runtime.task.Task` object:
        their runtimes run in ``fast`` analysis mode, so that is safe.
        """
        if self.closed:  # _check_open, inlined on the per-task path
            raise SessionClosedError(self.session_id)
        for processor in self._live:
            processor.execute_task(task)

    def set_iteration(self, iteration):
        self._check_open()
        for processor in self._live:
            processor.set_iteration(iteration)

    def flush(self):
        self._check_open()
        for processor in self._live:
            processor.flush()

    def drop_node(self, node_id):
        """Remove a dead replica from the serving set; returns the live
        count.

        Degradation, not teardown: the survivors keep byte-identical
        agreement because the coordinator merely stops counting the dead
        node as a consumer (its already-fixed ingest points are
        untouched, and per-node retire tracking keeps pruning exact), and
        the dead node's processor and runtime stay on the handle, so
        nothing the application still references is torn down early.
        Refuses to drop the last live node -- a session with zero
        replicas is an outage, not a degradation.
        """
        self._check_open()
        live = [p for p in self._live if p.node_id != node_id]
        if len(live) == len(self._live):
            raise ValueError(
                f"node {node_id} is not live on session {self.session_id!r}"
            )
        if not live:
            raise ValueError(
                f"cannot drop node {node_id}: it is the last live replica "
                f"of session {self.session_id!r}"
            )
        self._live = live
        if self.coordinator is not None:
            self.coordinator.drop_node(node_id)
        return len(self._live)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self):
        """Replica count the session was opened with (drops included)."""
        return len(self.processors)

    @property
    def live_nodes(self):
        """Replicas still serving (``num_nodes`` minus dropped nodes)."""
        return len(self._live)

    @property
    def nodes_dropped(self):
        return len(self.processors) - len(self._live)

    @property
    def backend_kind(self):
        return self.backend.backend_kind

    @property
    def live_processors(self):
        return list(self._live)

    @property
    def processor(self):
        """The lowest-id live replica, the reference the facade reports
        (node 0 until it drops)."""
        return self._live[0]

    @property
    def runtime(self):
        return self._live[0].runtime

    @property
    def runtimes(self):
        return [processor.runtime for processor in self.processors]

    @property
    def stats(self):
        """This session's :class:`~repro.metrics.SessionStats` (the
        reference replica's counters): :func:`collect_session_stats`."""
        return collect_session_stats(self)

    def decision_trace(self):
        return self._live[0].decision_trace()

    def decisions_agree(self):
        """True if every *live* replica issued the identical trace
        sequence (trivially so with one). A dropped replica's trace is
        frozen at the prefix it issued before dying, so it is left out.
        """
        reference = self._live[0].decision_trace()
        return all(
            p.decision_trace() == reference for p in self._live[1:]
        )

    def __repr__(self):
        state = "closed" if self.closed else "open"
        return (
            f"{type(self).__name__}({self.session_id!r}, "
            f"nodes={self.live_nodes}/{self.num_nodes}, {state})"
        )


# ----------------------------------------------------------------------
# The session pool
# ----------------------------------------------------------------------
class SessionPool:
    """The session table and lifecycle under every tracing backend.

    Subclasses set ``backend_kind`` and implement :meth:`_build`; they
    may override :meth:`_admit`.

    Parameters
    ----------
    config:
        :class:`~repro.core.processor.ApopheniaConfig`; the default
        per-session configuration (``open_session`` may override it) and
        the backend's own deployment knobs.

    A session opened without an application-provided runtime gets a
    fresh one of the one spec,
    :func:`~repro.runtime.session.session_runtime`.
    """

    def __init__(self, config=None):
        self.config = config or ApopheniaConfig()
        self.sessions = {}  # session_id -> SessionHandle
        self.sessions_opened = 0
        # Only the service evicts, and only it may run a spill tier;
        # every pool reports both so stats readers need no probing.
        self.sessions_evicted = 0
        self.state_store = None
        # Lifetime metrics of closed sessions, so backend_stats reports
        # the whole history, not just the sessions still open.
        self._retired = {
            name: 0 for name, mark in metrics.MARKS.items() if mark["fold"]
        }

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(self, session_id, runtime=None, config=None,
                     state=None, **deployment):
        """Admit a session; returns its :class:`SessionHandle`.

        ``config`` overrides the per-session configuration; ``runtime``
        is an application-owned runtime (omitted, the pool builds one).
        ``state`` warm-starts the session from a
        :class:`~repro.persist.SessionState`: every processor of the
        handle hydrates from the same snapshot, so a replica set resumes
        with byte-identical learned state (the snapshot's coordinator
        restore is idempotent, so N applications equal one).
        ``deployment`` carries backend-specific keywords to ``_build``.
        """
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} already open")
        admitted = self._admit(session_id, state)
        # Nothing below is registered anywhere until the handle enters
        # the table, so a failing build or a refused warm start (hydrate
        # fails closed on a decision config mismatch) just propagates:
        # the half-built session is garbage and the id opens again.
        handle = self._build(session_id, config or self.config, runtime,
                             **deployment)
        if admitted is not None:
            for processor in handle.processors:
                hydrate_processor(processor, admitted)
            # The session's counters resume from the snapshot; what it
            # brought along is not work this pool served (and if this
            # pool did serve it, it was retired when that session closed).
            stats = collect_session_stats(handle)
            for name, mark in metrics.MARKS.items():
                if mark["restored"] and mark["fold"] is add:
                    self._retired[name] -= getattr(stats, name)
            for processor in handle.processors:
                processor.warm_starts += 1
        if self.state_store is not None:
            # An open session has no spilled state, whichever state
            # warm-started it: a snapshot this admission superseded must
            # not resurrect after a later, deliberate close.
            self.state_store.pop(session_id)
        self.sessions[session_id] = handle
        self.sessions_opened += 1
        return handle

    def _admit(self, session_id, state):
        """Make room for ``session_id``; returns the state to warm-start
        it from (``state`` itself unless the backend holds a better one).
        """
        return state

    def _build(self, session_id, config, runtime):
        """Construct the session's processors; returns its handle."""
        raise NotImplementedError

    def close_session(self, session_id):
        """Flush and retire a session; returns its handle for inspection.

        Teardown is exception-safe: the table entry goes, the handle is
        marked closed, its lifetime counters reach ``backend_stats`` and
        its match engines drop their links even when the flush raises
        (the error still propagates). That is all there is -- everything
        serving the session hangs off the handle, so a failing tenant has
        nothing to leak, and with no link left in it nothing in it is a
        cycle: reference counting frees it when the last holder of the
        handle lets go.
        """
        handle = self.sessions.get(session_id)
        if handle is None:
            raise SessionClosedError(
                session_id,
                f"unknown or already-closed session {session_id!r}",
            )
        try:
            # The processors directly, not handle.flush(): teardown must
            # not touch LRU stamps or pump other tenants' work.
            for processor in handle.live_processors:
                processor.flush()
        finally:
            del self.sessions[session_id]
            handle.closed = True
            _fold(self._retired, handle, lifetime_only=True)
            # Not a release: the automaton links are the one cycle left
            # in a session, and without them dropping the handle frees
            # it at once instead of at the next full collection.
            for processor in handle.processors:
                processor.replayer.engine.unlink()
        return handle

    def session(self, session_id):
        """Look up an open session (without touching any LRU position)."""
        return self.sessions[session_id]

    def __len__(self):
        return len(self.sessions)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend_stats(self):
        """Every :mod:`repro.metrics` metric, folded over the pool's
        sessions, plus the pool's own figures.

        Counters are lifetime aggregates (closed sessions included);
        ``gauge``-marked metrics describe what is open right now.
        """
        totals = dict(self._retired)
        for handle in self.sessions.values():
            _fold(totals, handle)
        store = self.state_store
        totals.update(metrics.read({"pool": self, "spill": store}))
        totals.update(
            sessions_open=len(self.sessions),
            sessions_opened=self.sessions_opened,
            state_tokens_held=store.tokens_held if store is not None else 0,
            memo_hit_rate=(
                totals["memo_hits"] / totals["jobs_submitted"]
                if totals["jobs_submitted"] else 0.0
            ),
        )
        return totals


class StandaloneBackend(SessionPool):
    """N independent processors behind the common session surface.

    The "one Apophenia per application" deployment of the paper. Nothing
    is shared between sessions -- each gets its own processor, executor
    and (unless provided) its own runtime.
    """

    backend_kind = "standalone"

    def _build(self, session_id, config, runtime):
        # stream_key: the fault plan keys on the session id on every
        # backend, so one (plan, session id, stream) fails the same way
        # wherever it is served.
        processor = ApopheniaProcessor(
            runtime or session_runtime(), config, stream_key=session_id
        )
        return SessionHandle(session_id, self, [processor])


# ----------------------------------------------------------------------
# The multi-tenant service
# ----------------------------------------------------------------------
class LaneHandle(SessionHandle):
    """One tenant's slice of the service.

    Serving calls are routed through the service so handle-driven
    tenants get the same LRU stamp and pump as id-addressed ones: a
    handle that bypassed the pump would leave its job on the shared
    FIFO, and one that bypassed the stamp would look idle and get
    evicted while actively serving.
    """

    __slots__ = ("last_used",)

    @property
    def lane(self):
        """The session's :class:`~repro.service.executor.SessionLane`."""
        return self.processor.executor

    def execute_task(self, task):
        if self.closed:  # _check_open, inlined on the per-task path
            raise SessionClosedError(self.session_id)
        self.backend.execute_task(self.session_id, task)

    def set_iteration(self, iteration):
        self._check_open()
        self.backend.set_iteration(self.session_id, iteration)

    def flush(self):
        self._check_open()
        self.backend.flush(self.session_id)


class ApopheniaService(SessionPool):
    """Serves many applications' token streams from one process.

    Parameters
    ----------
    config:
        :class:`~repro.core.processor.ApopheniaConfig`; the service reads
        the service knobs (``max_sessions``, ``shared_memo_capacity``,
        ``shared_memo_token_budget``) plus the fault plan, and uses the
        rest as the default per-session configuration. ``open_session``
        may override the per-session part; all tenants share one
        executor, whose one mining algorithm keeps the shared memo a pure
        function of the window.
    """

    #: :class:`repro.api.TracingBackend` discriminator.
    backend_kind = "service"

    def __init__(self, config=None):
        super().__init__(config)
        self.executor = SharedJobExecutor(
            memo_capacity=self.config.shared_memo_capacity,
            memo_token_budget=self.config.shared_memo_token_budget,
            fault_plan=self.config.fault_plan,
        )
        self._tick = 0  # monotonic use counter backing LRU eviction
        # Evict-without-forgetting spill tier (None: forget on evict,
        # the historical behaviour).
        if self.config.session_state_budget is not None:
            self.state_store = SessionStateStore(
                token_budget=self.config.session_state_budget
            )

    # ------------------------------------------------------------------
    # Session lifecycle (the pool's hooks)
    # ------------------------------------------------------------------
    def _admit(self, session_id, state):
        """Admitting a session beyond ``max_sessions`` evicts the
        least-recently-used tenant first. With no explicit ``state``, a
        state the spill tier holds for this id (the tenant was evicted
        earlier) is applied -- re-admission transparently resumes the
        learned steady state. Only looked at here: ``open_session`` takes
        it out of the tier once the session is really open."""
        while len(self.sessions) >= max(1, self.config.max_sessions):
            self._evict_lru()
        if state is None and self.state_store is not None:
            state = self.state_store.get(session_id)
        return state

    def _build(self, session_id, config, runtime):
        lane = self.executor.lane(session_id, **stream_keywords(config))
        processor = ApopheniaProcessor(
            runtime or session_runtime(), config, executor=lane
        )
        handle = LaneHandle(session_id, self, [processor])
        self._tick += 1
        handle.last_used = self._tick
        return handle

    def _evict_lru(self):
        victim_id = min(
            self.sessions, key=lambda sid: self.sessions[sid].last_used
        )
        if self.state_store is not None:
            # dehydrate flushes the victim itself; close_session then
            # finds nothing left to flush.
            state = dehydrate(self.sessions[victim_id])
            self.state_store.put(victim_id, state)
        self.close_session(victim_id)
        self.sessions_evicted += 1

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def execute_task(self, session_id, task):
        """Issue one task on behalf of ``session_id``.

        Touches the session's LRU stamp, runs the task through the
        session's processor, then pumps the job it may have queued. This
        is the service's hot path -- it adds one dict lookup, one counter
        bump, and one queue check on top of what a standalone processor
        pays.
        """
        session = self._touch(session_id)
        # processors[0], not the `processor` property: a service session
        # is single-node, and this is the per-task path.
        session.processors[0].execute_task(task)
        self._pump()

    def set_iteration(self, session_id, iteration):
        """Advance a session's iteration; same routing as
        ``execute_task`` (LRU stamp + pump)."""
        session = self._touch(session_id)
        session.processor.set_iteration(iteration)
        self._pump()

    def flush(self, session_id):
        """Drain one session's buffered tasks; same routing as
        ``execute_task`` (LRU stamp + pump)."""
        session = self._touch(session_id)
        session.processor.flush()
        self._pump()

    def flush_all(self):
        """Flush every open session (end of run, or a global fence)."""
        for session in self.sessions.values():
            session.processor.flush()
        self._pump()

    def _touch(self, session_id):
        """Look up a session and refresh its LRU stamp. Every serving
        entry point routes through here: the stamp is what keeps an
        active tenant -- whatever mix of submits, flushes, and iteration
        marks it issues -- off the eviction block."""
        session = self.sessions[session_id]
        self._tick += 1
        session.last_used = self._tick
        return session

    def _pump(self):
        """Mine what the call just queued, if anything: every public
        serving call ends here, so the FIFO is empty between calls."""
        executor = self.executor
        if executor.queue:
            executor.pump()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend_stats(self):
        """The pool's fold, with the shared memo's size reported once
        (every lane holds the one memo: the ``add`` fold would count it
        per lane) and the jobs that neither hit it nor degraded -- the
        mines really run. ``memo_hit_rate`` keeps the pool's formula,
        ``memo_hits / jobs_submitted``, as on every backend."""
        stats = super().backend_stats
        memo = self.executor.memo
        stats["memo_tokens_held"] = memo.tokens_held if memo is not None else 0
        stats["mines_executed"] = (
            stats["jobs_submitted"] - stats["memo_hits"]
            - stats["degraded_jobs"]
        )
        return stats
