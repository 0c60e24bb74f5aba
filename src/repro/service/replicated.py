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

The session is the common :class:`~repro.service.service.SessionHandle`
over those processors and that coordinator. ``submit`` issues the task
to every live node replica in node order; per-node completion jitter
(:func:`repro.core.jobs.completion_op`) gives the agreement protocol
real skew to resolve, and :meth:`SessionHandle.decisions_agree` checks
the invariant the protocol exists for. :meth:`SessionHandle.drop_node`
is the one way a replica leaves the set. The facade-visible surface --
``submit`` / ``set_iteration`` / ``flush`` / ``stats`` / ``snapshot``
-- reports the lowest-id live node, the reference replica.
"""

from repro.core.coordination import IngestCoordinator
from repro.core.jobs import MiningMemo, executor_from_config
from repro.core.processor import ApopheniaProcessor
from repro.runtime.session import session_runtime
from repro.service.service import SessionHandle, SessionPool


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
        # The fault plan is a pure schedule keyed by the session id, so
        # every node executor resolved the same one: injected mining
        # faults hit all replicas identically -- degraded results stay
        # replicated results, and the agreement invariant survives.
        return SessionHandle(session_id, self, processors, coordinator)


__all__ = ["ReplicatedBackend"]
