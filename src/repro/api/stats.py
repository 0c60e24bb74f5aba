"""Uniform structured session statistics.

Before this surface existed, callers poked backend internals --
``processor.stats.as_tuple()`` for the replayer counters,
``processor.executor.memo_hits`` for memo reuse,
``session.lane.memo_hits`` on the service, ``service.sessions_evicted``
for eviction pressure -- with a different spelling per deployment.
:class:`SessionStats` is one frozen snapshot with the same fields
whichever backend served the session, and
:func:`collect_session_stats` reads it off the one
:class:`~repro.service.service.SessionHandle` shape every backend returns.
"""

from dataclasses import dataclass

from repro.core.processor import ApopheniaProcessor
from repro.core.replayer import ReplayerStats
from repro.service.service import SessionHandle, StandaloneBackend

@dataclass(frozen=True)
class SessionStats:
    """One deployment-agnostic statistics snapshot of a session.

    The replayer counters (``tasks_seen`` ... ``deferrals``) are the
    decision-stream-determined part: two runs of the same stream that
    made the same decisions have identical values, whichever backend
    served them. The executor-side fields (memo hits, evictions)
    describe *how* the backend served the session and may legitimately
    differ between deployments.
    """

    session_id: object
    backend: str
    # Decision-determined (replayer) counters.
    tasks_seen: int
    tasks_flushed: int
    tasks_traced: int
    traces_fired: int
    candidates_ingested: int
    deferrals: int
    # Serving-path gauges (match engine + decision policy): how much
    # pointer pressure the stream generated, how much of it the engine
    # deduplicated away, and how often scoring hysteresis kept the
    # policy from chasing an unrealized candidate.
    active_pointer_peak: int
    pointer_collapses: int
    hysteresis_suppressed: int
    # Executor-side serving counters.
    jobs_submitted: int
    tokens_analyzed: int
    memo_hits: int
    evictions: int
    # Replication gauges (Section 5.1 agreement protocol). Single-node
    # backends report the no-coordinator defaults: 1 node, no waits, a
    # zero margin, and an empty agreement table.
    nodes: int = 1
    coordinator_waits: int = 0
    ingest_margin_ops: int = 0
    agreement_table_size: int = 0
    # Degradation gauges (fault containment / graceful degradation):
    # contained mining failures, jobs resolved to the empty degraded
    # result, soft-deadline overruns, whether the session's lane is
    # currently quarantined, and how many replicas are still serving
    # (== nodes unless a replica dropped).
    mining_failures: int = 0
    degraded_jobs: int = 0
    deadline_overruns: int = 0
    quarantined: bool = False
    live_nodes: int = 1
    # Candidate-lifecycle / persistence gauges: candidates the eviction
    # policy removed, how many times this session (or its backend, for
    # service-held spill tiers) warm-started from a dehydrated state,
    # and how many dehydrated states the serving backend currently
    # holds. All zero with the default (unbounded) knobs.
    candidates_evicted: int = 0
    warm_starts: int = 0
    states_held: int = 0

    @property
    def memo_hit_rate(self):
        """Fraction of this session's mining jobs answered by a memo."""
        return self.memo_hits / self.jobs_submitted if self.jobs_submitted else 0.0

    @property
    def replay_fraction(self):
        """Fraction of the session's tasks issued inside a trace."""
        return self.tasks_traced / self.tasks_seen if self.tasks_seen else 0.0

    def replayer_counters(self):
        """The decision-determined slice, in
        :meth:`~repro.core.replayer.ReplayerStats.decision_tuple` order --
        what the decision-neutrality property tests compare."""
        return tuple(
            getattr(self, name) for name in ReplayerStats.DECISION_FIELDS
        )

    def serving_counters(self):
        """The engine/policy gauges -- the snapshot slots past the
        decision-determined prefix -- in ``ReplayerStats`` slot order."""
        decided = len(ReplayerStats.DECISION_FIELDS)
        return tuple(
            getattr(self, name)
            for name in ReplayerStats.SNAPSHOT_FIELDS[decided:]
        )


def collect_session_stats(handle):
    """Build a :class:`SessionStats` from a backend's session handle.

    ``handle`` is what ``TracingBackend.open_session`` returned. The
    replayer and executor fields report the reference replica; the
    replication gauges come from the handle's coordinator (absent on
    single-node backends: the defaults), and ``evictions`` /
    ``states_held`` from the serving pool. A hand-driven
    :class:`~repro.core.processor.ApopheniaProcessor` is accepted too
    and reads as the one session of a standalone pool.
    """
    if isinstance(handle, ApopheniaProcessor):
        handle = SessionHandle(
            None, StandaloneBackend(handle.config), [handle],
            coordinator=handle.coordinator,
        )
    pool = handle.backend
    processor = handle.processor
    replayer = processor.stats
    executor = processor.executor
    coordinator = handle.coordinator
    state_store = pool.state_store
    return SessionStats(
        session_id=handle.session_id,
        backend=pool.backend_kind,
        # Every ReplayerStats slot is a SessionStats field of the same
        # name, so a counter added there cannot go missing here.
        **{name: getattr(replayer, name) for name in replayer.__slots__},
        jobs_submitted=executor.jobs_submitted,
        tokens_analyzed=executor.tokens_analyzed,
        memo_hits=executor.memo_hits,
        evictions=pool.sessions_evicted,
        nodes=handle.num_nodes,
        coordinator_waits=coordinator.waits if coordinator else 0,
        ingest_margin_ops=coordinator.margin_ops if coordinator else 0,
        agreement_table_size=(
            coordinator.agreement_table_size if coordinator else 0
        ),
        mining_failures=executor.mining_failures,
        degraded_jobs=executor.degraded_jobs,
        deadline_overruns=executor.deadline_overruns,
        quarantined=executor.quarantined,
        live_nodes=handle.live_nodes,
        warm_starts=processor.warm_starts,
        states_held=state_store.states_held if state_store is not None else 0,
    )


__all__ = ["SessionStats", "collect_session_stats"]
