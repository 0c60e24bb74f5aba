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
  pruned as every node consumes an entry, and each replica set has its
  own coordinator, so two sessions' independently numbered job indices
  have no table to collide in.
"""

import gc
import weakref

import pytest

import repro.api as api
from repro.api import ReplicatedBackend, build_config, open_session
from repro.apps.base import capture_stream
from repro.core.coordination import IngestCoordinator
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.runtime.runtime import Runtime

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
    coordinator = IngestCoordinator(initial_margin_ops=margin)
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
            assert handle.decisions_agree(), [
                p.decision_trace() for p in handle.processors
            ]
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
            traces = [p.decision_trace() for p in handle.processors]
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
    """Pruning keeps the table bounded, and every session's agreements
    are its own: one coordinator per replica set, by construction."""

    def test_agreement_table_bounded_over_long_run(self, app_streams):
        with open_session(
            "s3d", backend="replicated", config=REPLICATED_CONFIG
        ) as session:
            _drive(session, app_streams["s3d"])
            coordinator = session.handle.coordinator
            # Many agreements were issued and consumed over the run; the
            # live table holds at most the in-flight jobs, not one entry
            # per mining job for the life of the tenant.
            assert coordinator.agreements_pruned > 10
            assert coordinator.agreement_table_size <= 2
            assert session.stats().agreement_table_size <= 2

    def test_interleaved_sessions_as_alone(self, app_streams):
        """Two sessions of one backend number their jobs from zero and
        sample on different schedules, so job ``j`` of one is submitted
        at a different op than job ``j`` of the other; served interleaved
        they must each decide *exactly* as they do alone -- each replica
        set has its own coordinator, so there is no table where equal job
        indices could meet."""
        cfg_a = REPLICATED_CONFIG
        cfg_b = cfg_a.with_overrides(multi_scale_factor=20)
        references = {}
        for key, cfg, app in (("a", cfg_a, "s3d"), ("b", cfg_b, "jacobi")):
            with open_session(
                f"solo-{key}", backend="replicated", config=cfg
            ) as solo:
                _drive(solo, app_streams[app])
                references[key] = (solo.decision_trace(), solo.stats())
            assert references[key][0]  # it actually fired traces
        backend = ReplicatedBackend(cfg_a)
        handles = {
            "a": backend.open_session("lane-a"),
            "b": backend.open_session("lane-b", config=cfg_b),
        }
        assert handles["a"].coordinator is not handles["b"].coordinator
        streams = {"a": app_streams["s3d"], "b": app_streams["jacobi"]}
        for i in range(max(len(s) for s in streams.values())):
            for key in ("a", "b"):
                if i < len(streams[key]):
                    iteration, task = streams[key][i]
                    handles[key].set_iteration(iteration)
                    handles[key].execute_task(task)
        for key, handle in handles.items():
            handle.flush()
            trace, stats = references[key]
            assert handle.decisions_agree()
            assert handle.decision_trace() == trace
            # The tight margin made both wait and grow -- independently.
            coordinator = handle.coordinator
            assert coordinator.waits == stats.coordinator_waits > 0
            assert coordinator.margin_ops == stats.ingest_margin_ops
            assert coordinator.agreement_table_size <= 2


class TestBackendLifecycle:
    def test_runtimes_stamped_and_released_via_factory(self):
        """One runtime of the one spec per node, each node's own, and
        nothing holds them once the session is gone."""
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        session = open_session("sim", backend=backend)
        runtimes = session.handle.runtimes
        assert len({id(r) for r in runtimes}) == REPLICATED_CONFIG.num_nodes
        assert all((r.analysis_mode, r.keep_task_log) == ("fast", False)
                   for r in runtimes)
        stamped = [weakref.ref(r) for r in runtimes]
        session.close()
        del session, runtimes
        gc.collect()
        assert [ref() for ref in stamped if ref() is not None] == []

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
        # The backend numbers its replicas; there is no node_id to pass.
        with pytest.raises(TypeError, match="node_id"):
            backend.open_session("s", node_id=2)
        with pytest.raises(ValueError, match="3 nodes"):
            backend.open_session("s", runtimes=[_fast_runtime()])

    def test_backend_num_nodes_override_survives_session_overrides(self):
        """The backend's replica count is its config's, so layering an
        unrelated per-session knob cannot drop it back to the default."""
        backend = ReplicatedBackend(ApopheniaConfig(num_nodes=5))
        assert backend.num_nodes == 5
        with open_session(
            "t", backend=backend, initial_ingest_margin_ops=50
        ) as session:
            assert session.handle.num_nodes == 5

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
        analysis, nodes 1..N-1 hit the shared per-session memo -- every
        job, with the memo's one entry."""
        with open_session(
            "memo", backend="replicated", config=REPLICATED_CONFIG
        ) as session:
            _drive(session, app_streams["s3d"][:400])
            processors = session.handle.processors
            memos = {id(p.executor.memo) for p in processors}
            assert len(memos) == 1
            assert processors[0].executor.memo.capacity == 1
            assert processors[0].executor.memo_hits == 0
            assert processors[1].executor.jobs_submitted > 0
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
