"""The replicated tracing backend: N-node control replication as a service.

The paper's Section 5.1 deployment runs the application under dynamic
control replication: every node executes the whole program and must issue
the *same* operation stream -- including Apophenia's ``tbegin``/``tend``
decisions -- while each node's asynchronous mining jobs complete at
different times. :class:`ReplicatedBackend` serves that deployment behind
the :class:`repro.api.TracingBackend` protocol, so client code written
against :func:`repro.api.open_session` runs unchanged on one node, on a
shared multi-tenant service, or control-replicated across N nodes::

    with api.open_session("sim", backend="replicated",
                          num_nodes=4) as session:
        session.submit(task)        # issued on every node replica
        ...
        session.stats().coordinator_waits

Each session is a full N-way replica set:

* N :class:`~repro.core.processor.ApopheniaProcessor` node replicas, one
  per node id, each fronting its own runtime of the
  :func:`~repro.runtime.session.session_runtime` spec (node replicas own
  distinct region forests, exactly as real nodes own distinct Legion
  instances);
* one :class:`~repro.core.coordination.IngestCoordinator` carrying the
  agreement protocol -- one per replica set by construction: ``_build``
  makes it, only this session's processors and handle hold it, and its
  tables are keyed by the job index alone;
* one per-session, one-entry :class:`~repro.core.jobs.MiningMemo`
  shared by the N node executors -- nodes mine byte-identical windows (the token stream is
  replicated), so one node's analysis answers the other N-1 for free,
  which is safe for exactly the reason the multi-tenant memo is: results
  are pure functions of ``(window, min_length)``.

``submit`` issues the task to every node replica in node order; per-node
completion jitter (:func:`repro.core.jobs.completion_op`) gives the
agreement protocol real skew to resolve, and
:meth:`ReplicatedSessionHandle.decisions_agree` checks the invariant the
protocol exists for. The facade-visible surface -- ``submit`` /
``set_iteration`` / ``flush`` / ``stats`` / ``snapshot`` -- reports node
0, the reference replica.
"""

from repro.core.coordination import IngestCoordinator
from repro.core.jobs import MiningMemo, executor_from_config
from repro.core.processor import ApopheniaProcessor
from repro.errors import SessionClosedError
from repro.runtime.session import session_runtime
from repro.service.service import SessionHandle, SessionPool


class ReplicatedSessionHandle(SessionHandle):
    """One session's N-node replica set.

    The common :class:`~repro.service.service.SessionHandle` shape --
    serving calls fan out to every live replica, introspection reports
    the lowest-id live one -- plus the replication-specific surface:
    ``decisions_agree()`` / ``decision_traces()`` and node drops.
    """

    __slots__ = ("faults", "_drops_armed")

    def __init__(self, session_id, backend, processors, coordinator, faults):
        super().__init__(session_id, backend, processors, coordinator)
        self.faults = faults
        self._drops_armed = faults.active and faults.has_node_drops

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def execute_task(self, task):
        """Issue one logical task on every node replica, in node order.

        Control replication means every node sees the same stream; the
        runtimes run in ``fast`` analysis mode, so sharing one
        :class:`~repro.runtime.task.Task` object across replicas is safe
        (the same sharing the facade parity suites rely on).
        """
        if self.closed:  # _check_open, inlined on the per-task path
            raise SessionClosedError(self.session_id)
        if self._drops_armed:
            self._check_drops()
        for processor in self._live:
            processor.execute_task(task)

    # ------------------------------------------------------------------
    # Degradation (node drops)
    # ------------------------------------------------------------------
    @property
    def dropped(self):
        """Node ids no longer serving."""
        return {p.node_id for p in self.processors if p not in self._live}

    def _check_drops(self):
        """Apply fault-plan node drops whose scheduled op has arrived."""
        clock = self._live[0].finder.ops_observed
        for processor in list(self._live):
            if len(self._live) == 1:
                break
            if self.faults.should_drop_node(
                self.session_id, processor.node_id, clock
            ):
                self.drop_node(processor.node_id)
        scheduled = {node for node, _ in self.faults.drop_nodes}
        live_ids = {p.node_id for p in self._live}
        if len(self._live) == 1 or not (scheduled & live_ids):
            self._drops_armed = False  # nothing left to apply

    def drop_node(self, node_id):
        """Remove a dead replica from the serving set; returns its count.

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
    # Agreement
    # ------------------------------------------------------------------
    def decision_traces(self):
        return [p.decision_trace() for p in self.processors]

    def decisions_agree(self):
        """True if every *live* node issued the identical trace sequence.

        Dropped replicas are excluded: a dead node's trace is frozen at
        the prefix it issued before dying, which trivially diverges from
        survivors that kept serving.
        """
        reference = self._live[0].decision_trace()
        return all(
            p.decision_trace() == reference for p in self._live[1:]
        )


class ReplicatedBackend(SessionPool):
    """Serves sessions on N control-replicated node processors.

    Parameters
    ----------
    config:
        :class:`~repro.core.processor.ApopheniaConfig`; ``num_nodes``
        picks the replica count (overridable per session via a
        session-level config) and ``initial_ingest_margin_ops`` seeds
        each session's agreement protocol.
    coordinate:
        ``False`` disables the agreement protocol -- every node ingests
        at its own completion times, which *diverges* under per-node
        jitter. Exists so tests and demos can show the protocol doing
        real work; production sessions always coordinate.
    """

    #: :class:`repro.api.TracingBackend` discriminator.
    backend_kind = "replicated"

    def __init__(self, config=None, coordinate=True):
        super().__init__(config)
        self.num_nodes = self.config.num_nodes
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        self.coordinate = coordinate

    def _build(self, session_id, config, runtime, runtimes=None):
        """N node replicas, one coordinator, one shared memo.

        The backend assigns node ids 0..N-1 itself and builds one
        runtime per node -- a single caller-owned ``runtime`` cannot
        serve N replicas. ``runtimes`` injects one caller-owned runtime
        per node.
        """
        if runtime is not None:
            raise ValueError(
                "replicated sessions own one runtime per node replica; "
                "pass runtimes=[...] (one per node) instead of runtime="
            )
        nodes = config.num_nodes
        if runtimes is None:
            runtimes = [session_runtime() for _ in range(nodes)]
        elif len(runtimes) != nodes:
            raise ValueError(
                f"got {len(runtimes)} runtimes for {nodes} nodes"
            )
        coordinator = (
            IngestCoordinator(
                initial_margin_ops=config.initial_ingest_margin_ops
            )
            if self.coordinate else None
        )
        # One shared per-session memo: replicas mine byte-identical
        # windows, so node 0's analysis answers nodes 1..N-1 --
        # decision-neutral because results are pure functions of the
        # window. One entry is all it needs: every node submits a window
        # before any node can submit the next (at most one job per
        # token, tokens fed to the replicas in turn).
        memo = MiningMemo(1)
        processors = [
            ApopheniaProcessor(
                runtimes[node],
                config,
                node_id=node,
                coordinator=coordinator,
                executor=executor_from_config(
                    config, node, session_id, memo=memo
                ),
            )
            for node in range(nodes)
        ]
        # The plan is a pure schedule keyed by the session id, so every
        # node executor resolved the same one: injected mining faults hit
        # all replicas identically -- degraded results stay replicated
        # results, and the agreement invariant survives the fault. The
        # handle reads its node drops off node 0's.
        return ReplicatedSessionHandle(
            session_id, self, processors, coordinator,
            processors[0].executor.fault_plan,
        )


__all__ = ["ReplicatedBackend", "ReplicatedSessionHandle"]
