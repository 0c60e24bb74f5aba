"""The replicated tracing backend behind the ``repro.api`` facade.

The Section 5.1 acceptance properties, asserted through client code that
never touches backend internals:

* **All-node agreement.** For every application, a facade session served
  by N control-replicated node processors (deterministic per-node
  completion jitter) issues byte-identical decision streams on every
  node.
* **Node-0 / standalone parity.** Once margins converge (a re-run at the
  converged margin records zero waits), node 0's stream is
  byte-identical to a standalone processor gated by a private
  coordinator -- the replicated deployment then costs coordination
  nothing.
* **Divergence without coordination.** With the coordinator disabled the
  same jitter makes nodes genuinely diverge, so the agreement protocol
  is doing real work.
* **Bounded, session-scoped agreement state.** The agreement table is
  pruned as every node consumes an entry, and keys are namespaced by
  session identity so sessions sharing one coordinator cannot collide on
  their independently numbered job indices.
"""

import pytest

import repro.api as api
from repro.api import ReplicatedBackend, build_config, open_session
from repro.apps.base import capture_stream
from repro.core.coordination import IngestCoordinator
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.runtime.runtime import Runtime
from repro.runtime.session import RuntimeSessionFactory

pytestmark = pytest.mark.replication

#: Same sizing as the service/api suites, with a deliberately tight
#: initial margin (job latency is ~40 ops plus jitter) so the agreement
#: protocol must actually wait and grow before reaching steady state.
REPLICATED_CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=40,
    initial_ingest_margin_ops=10,
    num_nodes=3,
)

PARITY_APPS = ("s3d", "stencil", "jacobi", "cfd")


@pytest.fixture(scope="module")
def app_streams():
    """One small captured stream per application type."""
    return {
        name: capture_stream(name, 700, task_scale=0.05)
        for name in PARITY_APPS
    }


def _drive(session, stream):
    for iteration, task in stream:
        session.set_iteration(iteration)
        session.submit(task)
    session.flush()


def _fast_runtime():
    return Runtime(
        analysis_mode="fast", mismatch_policy="fallback", keep_task_log=False
    )


def _drive_standalone_coordinated(stream, margin, config=REPLICATED_CONFIG):
    """A single processor gated by its own private coordinator."""
    coordinator = IngestCoordinator(initial_margin_ops=margin, num_nodes=1)
    processor = ApopheniaProcessor(
        _fast_runtime(), config, coordinator=coordinator
    )
    for iteration, task in stream:
        processor.set_iteration(iteration)
        processor.execute_task(task)
    processor.flush()
    return processor.decision_trace(), coordinator


class TestAllNodeAgreement:
    """Acceptance property (a): identical decisions on every node."""

    @pytest.mark.parametrize("app_name", PARITY_APPS)
    def test_all_nodes_agree_per_app(self, app_streams, app_name):
        with open_session(
            app_name, backend="replicated", config=REPLICATED_CONFIG
        ) as session:
            _drive(session, app_streams[app_name])
            handle = session.handle
            assert handle.num_nodes == REPLICATED_CONFIG.num_nodes
            assert handle.decisions_agree(), handle.decision_traces()
            assert session.decision_trace(), app_name  # traces actually fired
            # The tight margin forced real protocol work: nodes waited,
            # and the margin grew past its deliberately low start.
            stats = session.stats()
            assert stats.coordinator_waits > 0
            assert stats.ingest_margin_ops > \
                REPLICATED_CONFIG.initial_ingest_margin_ops

    def test_facade_snapshot_reports_node_zero(self, app_streams):
        with open_session(
            "snap", backend="replicated", config=REPLICATED_CONFIG
        ) as session:
            _drive(session, app_streams["stencil"])
            snapshot = session.snapshot()
            assert snapshot.backend == "replicated"
            assert snapshot.decision_trace == \
                tuple(session.handle.processors[0].decision_trace())


class TestNodeZeroStandaloneParity:
    """Acceptance property (b): at the converged margin, node 0 is
    byte-identical to a standalone coordinated processor."""

    @pytest.mark.parametrize("app_name", ("s3d", "jacobi"))
    def test_converged_margin_matches_standalone(self, app_streams, app_name):
        stream = app_streams[app_name]
        # Phase 1: tight margin; the protocol waits and grows until no
        # node stalls. The value it settles on is the converged margin.
        with open_session(
            app_name, backend="replicated", config=REPLICATED_CONFIG
        ) as session:
            _drive(session, stream)
            converged = session.handle.coordinator.margin_ops
            assert session.stats().coordinator_waits > 0
        # Phase 2: restarted at the converged margin, the protocol is in
        # steady state from the first job -- zero waits, no growth...
        settled = REPLICATED_CONFIG.with_overrides(
            initial_ingest_margin_ops=converged
        )
        with open_session(
            app_name, backend="replicated", config=settled
        ) as session:
            _drive(session, stream)
            handle = session.handle
            stats = session.stats()
            assert stats.coordinator_waits == 0
            assert stats.ingest_margin_ops == converged
            assert handle.decisions_agree()
            node0 = handle.processors[0].decision_trace()
        # ...and node 0's stream is exactly a standalone coordinated
        # processor's: per-node jitter no longer influences decisions.
        solo, solo_coordinator = _drive_standalone_coordinated(
            stream, converged
        )
        assert node0 == solo
        assert solo_coordinator.waits == 0


class TestDivergenceDemonstration:
    """Satellite: the protocol is load-bearing, not decorative."""

    def test_nodes_diverge_with_coordinator_disabled(self, app_streams):
        """Under the same per-node jitter, ingestion at local completion
        times (no agreement) makes replicas issue different streams."""
        backend = ReplicatedBackend(REPLICATED_CONFIG, coordinate=False)
        with open_session("jacobi", backend=backend) as session:
            _drive(session, app_streams["jacobi"])
            handle = session.handle
            assert handle.coordinator is None
            assert not handle.decisions_agree()
            traces = handle.decision_traces()
            assert len(set(traces)) > 1

    def test_coordinated_run_converges(self, app_streams):
        """With the coordinator on, waits reach steady state and the
        margin stops growing -- sampled mid-stream, not just at the end."""
        with open_session(
            "jacobi", backend="replicated", config=REPLICATED_CONFIG
        ) as session:
            stream = app_streams["jacobi"]
            coordinator = session.handle.coordinator
            half = len(stream) // 2
            for iteration, task in stream[:half]:
                session.set_iteration(iteration)
                session.submit(task)
            mid_waits = coordinator.waits
            mid_margin = coordinator.margin_ops
            for iteration, task in stream[half:]:
                session.set_iteration(iteration)
                session.submit(task)
            session.flush()
            assert coordinator.waits == mid_waits  # no stalls after warmup
            assert coordinator.margin_ops == mid_margin  # growth stopped
            assert session.handle.decisions_agree()


class TestBoundedSessionScopedAgreements:
    """Satellites: pruning keeps the table bounded; session-namespaced
    keys make one coordinator shareable across sessions."""

    def test_agreement_table_bounded_over_long_run(self, app_streams):
        with open_session(
            "s3d", backend="replicated", config=REPLICATED_CONFIG
        ) as session:
            _drive(session, app_streams["s3d"])
            coordinator = session.handle.coordinator
            # Many agreements were issued and consumed over the run; the
            # live table holds at most the in-flight jobs, not one entry
            # per mining job for the life of the tenant.
            assert coordinator.agreements_issued > 10
            assert coordinator.agreements_pruned > 0
            assert coordinator.agreement_table_size <= 2
            assert session.stats().agreement_table_size <= 2

    def test_two_sessions_share_one_coordinator_safely(self, app_streams):
        """Two lanes with identical job indices on one coordinator must
        get independent agreements (the pre-fix bare-``job_index`` key
        collided across sessions, handing one lane the other's agreed
        ingestion points).

        The margin is set high enough that no node ever waits, so the
        shared coordinator carries no cross-session margin coupling and
        each lane must decide *exactly* as it does on a private
        coordinator. Lane b samples on a different schedule, so its job
        ``j`` is submitted at a different op than lane a's job ``j`` --
        under the old colliding keys, b would inherit a's agreed points
        and shift its every ingestion.
        """
        cfg_a = REPLICATED_CONFIG.with_overrides(
            initial_ingest_margin_ops=200
        )
        cfg_b = cfg_a.with_overrides(multi_scale_factor=20)
        # Reference: each app on its own private per-session coordinator.
        with open_session(
            "solo-a", backend="replicated", config=cfg_a
        ) as solo:
            _drive(solo, app_streams["s3d"])
            reference_a = solo.decision_trace()
        with open_session(
            "solo-b", backend="replicated", config=cfg_b
        ) as solo:
            _drive(solo, app_streams["jacobi"])
            reference_b = solo.decision_trace()
        assert reference_a and reference_b  # both actually fired traces
        # coordinator= is backend-level plumbing (deployments running one
        # collective across sessions), so it is passed to the backend's
        # own open_session, not through the facade.
        shared = IngestCoordinator(initial_margin_ops=200)
        backend = ReplicatedBackend(cfg_a)
        a = backend.open_session("lane-a", coordinator=shared)
        b = backend.open_session("lane-b", config=cfg_b, coordinator=shared)
        streams = {"a": app_streams["s3d"], "b": app_streams["jacobi"]}
        handles = {"a": a, "b": b}
        for i in range(max(len(s) for s in streams.values())):
            for key in ("a", "b"):
                if i < len(streams[key]):
                    iteration, task = streams[key][i]
                    handles[key].set_iteration(iteration)
                    handles[key].execute_task(task)
        a.flush()
        b.flush()
        assert shared.waits == 0 and shared.margin_ops == 200
        assert a.decisions_agree()
        assert b.decisions_agree()
        assert a.decision_trace() == reference_a
        assert b.decision_trace() == reference_b
        # Shared-table hygiene: consumed entries are pruned per stream.
        assert shared.agreements_pruned > 0
        assert shared.agreement_table_size <= 4
        backend.close_session("lane-a")
        backend.close_session("lane-b")

    def test_agreements_prune_on_shared_coordinator(self):
        shared = IngestCoordinator(initial_margin_ops=50, num_nodes=2)
        assert shared.agree(0, 100, stream="x") == 150
        assert shared.agree(0, 900, stream="y") == 950  # independent key
        shared.retire(0, stream="x")
        assert shared.agreement_table_size == 2  # one of two nodes consumed
        shared.retire(0, stream="x")
        assert shared.agreement_table_size == 1  # x entry pruned
        assert shared.agreements_pruned == 1

    def test_session_close_releases_shared_coordinator_state(
        self, app_streams
    ):
        """Closing a session discards its finders' pending jobs, so
        agreements fixed for still-pending heads would leak on a shared
        coordinator -- teardown must release the departed stream."""
        shared = IngestCoordinator(
            initial_margin_ops=REPLICATED_CONFIG.initial_ingest_margin_ops
        )
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        survivor = backend.open_session("survivor", coordinator=shared)
        departing = backend.open_session("departing", coordinator=shared)
        for handle in (survivor, departing):
            for iteration, task in app_streams["s3d"][:200]:
                handle.set_iteration(iteration)
                handle.execute_task(task)
        # Steady state holds live (not yet fully consumed) entries.
        assert shared.agreement_table_size > 0
        backend.close_session("departing")
        assert all(
            key[0] != "departing" for key in shared._agreed
        )
        assert shared.node_count("departing") == 1  # registration dropped
        # The survivor keeps serving on the shared coordinator.
        assert shared.node_count("survivor") == 3
        for iteration, task in app_streams["s3d"][200:400]:
            survivor.set_iteration(iteration)
            survivor.execute_task(task)
        assert survivor.decisions_agree()
        backend.close_session("survivor")
        assert shared.agreement_table_size == 0


class TestBackendLifecycle:
    def test_runtimes_stamped_and_released_via_factory(self):
        factory = RuntimeSessionFactory()
        backend = ReplicatedBackend(
            REPLICATED_CONFIG, runtime_factory=factory
        )
        session = open_session("sim", backend=backend)
        assert len(factory) == REPLICATED_CONFIG.num_nodes
        assert {f"sim@node{i}" for i in range(3)} == set(factory.handles)
        handles = dict(factory.handles)
        session.close()
        assert len(factory) == 0
        # Each node handle had its serving processor bound while open.
        assert all(h.processor is None for h in handles.values())

    def test_per_node_runtimes_are_isolated(self):
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        with open_session("iso", backend=backend) as session:
            runtimes = session.handle.runtimes
            assert len(set(map(id, runtimes))) == len(runtimes)
            forests = {id(r.forest) for r in runtimes}
            assert len(forests) == len(runtimes)

    def test_close_session_unknown_id(self):
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        with pytest.raises(KeyError, match="unknown or already-closed"):
            backend.close_session("never-opened")

    def test_rejects_single_runtime_and_foreign_node_id(self):
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        with pytest.raises(ValueError, match="per node"):
            backend.open_session("s", runtime=_fast_runtime())
        with pytest.raises(ValueError, match="node ids"):
            backend.open_session("s", node_id=2)
        with pytest.raises(ValueError, match="3 nodes"):
            backend.open_session("s", runtimes=[_fast_runtime()])

    def test_rejects_coordinator_with_mismatched_node_count(self):
        """A fixed consumer count that disagrees with the replica set
        would prune agreements early (divergence) or never (leak)."""
        backend = ReplicatedBackend(REPLICATED_CONFIG)  # 3 nodes
        with pytest.raises(ValueError, match="consumers"):
            backend.open_session(
                "s", coordinator=IngestCoordinator(num_nodes=2)
            )
        backend.open_session(
            "ok", coordinator=IngestCoordinator(num_nodes=3)
        )

    def test_backend_num_nodes_override_survives_session_overrides(self):
        """The backend-level replica count is rebased onto the config,
        so layering an unrelated per-session knob cannot silently drop
        it back to the config default."""
        backend = ReplicatedBackend(num_nodes=5)
        assert backend.config.num_nodes == 5
        with open_session(
            "t", backend=backend, initial_ingest_margin_ops=50
        ) as session:
            assert session.handle.num_nodes == 5

    def test_disabled_memo_stays_disabled_per_node(self):
        """mining_memo_capacity=0 must not fall back to a private
        default-capacity memo in each node executor."""
        cfg = REPLICATED_CONFIG.with_overrides(mining_memo_capacity=0)
        with open_session("nomemo", backend="replicated", config=cfg) as s:
            assert all(
                p.executor.memo is None for p in s.handle.processors
            )

    def test_num_nodes_from_config_builder_and_env(self):
        assert build_config(env={}, num_nodes=5).num_nodes == 5
        assert build_config(env={"REPRO_NUM_NODES": "4"}).num_nodes == 4
        with pytest.raises(ValueError, match="num_nodes"):
            build_config(env={}, num_nodes=0)
        backend = TestBackendLifecycle._backend_via_facade(num_nodes=4)
        assert backend.num_nodes == 4

    @staticmethod
    def _backend_via_facade(**overrides):
        session = open_session(
            "n", backend="replicated",
            config=REPLICATED_CONFIG.with_overrides(**overrides),
        )
        backend = session.backend
        session.close()
        return backend

    def test_replica_set_shares_one_mining_memo(self, app_streams):
        """Replicas mine byte-identical windows: node 0 pays for the
        analysis, nodes 1..N-1 hit the shared per-session memo."""
        with open_session(
            "memo", backend="replicated", config=REPLICATED_CONFIG
        ) as session:
            _drive(session, app_streams["s3d"][:400])
            processors = session.handle.processors
            memos = {id(p.executor.memo) for p in processors}
            assert len(memos) == 1
            assert all(
                p.executor.memo_hits == p.executor.jobs_submitted
                for p in processors[1:]
            )

    def test_backend_stats_carry_coordinator_gauges(self, app_streams):
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        with open_session("g", backend=backend) as session:
            _drive(session, app_streams["cfd"][:400])
            live = backend.backend_stats
            assert live["nodes"] == 3
            assert live["coordinator_waits"] > 0
            assert live["ingest_margin_ops"] > \
                REPLICATED_CONFIG.initial_ingest_margin_ops
            assert live["agreements_pruned"] > 0
            assert live["agreement_table_size"] <= 2
            waits = live["coordinator_waits"]
        closed = backend.backend_stats
        # Lifetime counters survive session close, like other backends'.
        assert closed["coordinator_waits"] == waits
        assert closed["sessions_open"] == 0
        assert closed["sessions_opened"] == 1

    def test_single_node_stats_report_defaults(self):
        with open_session("solo", profile="reduced-scale") as session:
            stats = session.stats()
            assert stats.nodes == 1
            assert stats.coordinator_waits == 0
            assert stats.ingest_margin_ops == 0
            assert stats.agreement_table_size == 0
