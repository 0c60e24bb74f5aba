"""Fault injection and graceful degradation across the stack.

Mining is *advisory*: a failed or quarantined mining job is
semantically "no repeats found in this window", never a crash and never
corrupted shared state. These suites pin the whole degradation ladder:

* **Deterministic fault plans** -- same seed, same stream, same schedule,
  so chaos runs are reproducible and fault-free tenants can be
  byte-compared against their no-fault runs.
* **Job containment** -- a failing mining job resolves to the empty
  degraded result; the poisoned result never enters a (shared) memo.
* **Lane quarantine** -- consecutive failures trip a per-lane circuit
  breaker: the lane's jobs resolve to pass-through results without
  mining until an exponential-backoff probe recovers it.
* **Replica-drop degradation** -- a replicated session survives a dead
  node: survivors keep byte-identical agreement, the coordinator stops
  counting the dead consumer, and the gauges say so.
* **The headline chaos property** -- under seeded randomized fault
  schedules scoped to a subset of tenants, every tenant's stream stays
  valid (task conservation holds), fault-free tenants are byte-identical
  to their no-fault runs, and the service never dies.
"""

import gc
import weakref

import pytest

import repro.api as api
from repro.api import build_config, open_session
from repro.apps.base import capture_stream
from repro.core.jobs import JobExecutor, MiningMemo
from repro.core.processor import ApopheniaConfig
from repro.experiments.multi_tenant import run_service
from repro.faults import (
    MAX_PROBE_BACKOFF,
    NULL_FAULT_PLAN,
    CircuitBreaker,
    FaultPlan,
    MiningFault,
    parse_fault_spec,
    resolve_fault_plan,
)
from repro.errors import SessionClosedError
from repro.service import ApopheniaService, SharedJobExecutor
from repro.service.replicated import ReplicatedBackend

pytestmark = pytest.mark.faults

#: Same tier-1 sizing as the service suites: small enough to stay fast,
#: large enough that traces fire and mining jobs actually run.
FAST_CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)

#: Replicated sizing (mirrors tests/test_replicated_backend.py).
REPLICATED_CONFIG = FAST_CONFIG.with_overrides(
    job_base_latency_ops=40,
    initial_ingest_margin_ops=10,
    num_nodes=3,
)

#: A window with real repeats, so healthy mining returns a non-empty
#: result the degraded empty value can be told apart from.
REPEATING_WINDOW = [1, 2, 3, 4, 5] * 8
MIN_LENGTH = 3


@pytest.fixture(scope="module")
def app_streams():
    """One small captured stream per application type."""
    return {
        name: capture_stream(name, 800, task_scale=0.05)
        for name in ("s3d", "stencil", "jacobi", "cfd")
    }


def _conserves_tasks(outcome):
    """Task conservation: every task seen was flushed or traced."""
    tasks_seen, tasks_flushed, tasks_traced = outcome.stats[:3]
    return tasks_seen == tasks_flushed + tasks_traced


# ---------------------------------------------------------------------------
# Fault plans: determinism, parsing, config flow
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_schedule_is_deterministic_across_instances(self):
        kwargs = dict(seed=7, mining_failure_rate=0.2, mining_delay_rate=0.2)
        a, b = FaultPlan(**kwargs), FaultPlan(**kwargs)
        schedule = [
            (a.mining_fault("tenant", j), b.mining_fault("tenant", j))
            for j in range(400)
        ]
        for fault_a, fault_b in schedule:
            if fault_a is None:
                assert fault_b is None
            else:
                assert fault_b is not None and fault_a.kind == fault_b.kind
        kinds = {f.kind for f, _ in schedule if f is not None}
        # The mix actually spreads across both kinds at these rates.
        assert kinds == {MiningFault.RAISE, MiningFault.DELAY}

    def test_different_seeds_and_streams_differ(self):
        base = FaultPlan(seed=1, mining_failure_rate=0.3)
        other_seed = FaultPlan(seed=2, mining_failure_rate=0.3)

        def bitmap(plan, stream):
            return [
                plan.mining_fault(stream, j) is not None for j in range(200)
            ]

        assert bitmap(base, "a") != bitmap(other_seed, "a")
        assert bitmap(base, "a") != bitmap(base, "b")

    def test_stream_scoping(self):
        plan = FaultPlan(seed=3, mining_failure_rate=1.0, streams=("a",))
        assert plan.mining_fault("a", 0) is not None
        assert plan.mining_fault("b", 0) is None

    def test_fail_jobs_window_always_raises(self):
        plan = FaultPlan(seed=0, fail_jobs=(3, 6))
        for j in range(10):
            fault = plan.mining_fault("s", j)
            if 3 <= j < 6:
                assert fault is not None and fault.kind == MiningFault.RAISE
            else:
                assert fault is None  # all rates are zero outside the window

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="rates"):
            FaultPlan(mining_failure_rate=0.8, mining_delay_rate=0.3)
        # Each rate on its own, not just the sum: a negative rate used to
        # hide inside a legal total and halve the delayed jobs.
        for name in ("mining_failure_rate", "mining_delay_rate"):
            for rate in (-0.5, 1.5, float("nan")):
                with pytest.raises(ValueError, match=name):
                    FaultPlan(**{name: rate})
        with pytest.raises(ValueError, match="mining_failure_rate"):
            FaultPlan(mining_failure_rate=-0.5, mining_delay_rate=1.0)
        with pytest.raises(ValueError,
                           match="bad fault spec.*mining_failure_rate"):
            parse_fault_spec(
                "seed=3,mining_failure_rate=-0.5,mining_delay_rate=1.0"
            )
        with pytest.raises(ValueError, match="fail_jobs"):
            FaultPlan(fail_jobs=(5, 2))
        with pytest.raises(ValueError, match="mining_delay_ops"):
            FaultPlan(mining_delay_rate=0.1, mining_delay_ops=-1)
        # Each parameter's type, too: a wrong one used to validate and
        # then skew a draw or raise mid-serving. A fractional delay
        # moved a completion op by +2.5 ops.
        for ops in (2.5, True, "50", None):
            with pytest.raises(ValueError, match="mining_delay_ops"):
                FaultPlan(mining_delay_rate=1.0, mining_delay_ops=ops)
        # A string rate raised TypeError; True was a rate of 1.
        for name in ("mining_failure_rate", "mining_delay_rate"):
            for rate in ("0.5", True, None, 0.5j):
                with pytest.raises(ValueError, match=name):
                    FaultPlan(**{name: rate})
        # (0.5, 2) was accepted as a window; "ab" raised TypeError.
        for window in ((0.5, 2), "ab", (1, 2, 3), (True, 2), 5, (1,)):
            with pytest.raises(ValueError, match="fail_jobs"):
                FaultPlan(fail_jobs=window)
        # A bare string scoped the plan to its characters, so the tenant
        # it names was never faulted.
        with pytest.raises(ValueError, match="streams"):
            FaultPlan(mining_failure_rate=1.0, streams="tenant-a")
        # Not a collection, or keys that cannot be looked up: both raised
        # TypeError from building the set.
        for streams in (5, [["a"]], [{"a": 1}]):
            with pytest.raises(ValueError, match="streams"):
                FaultPlan(streams=streams)

    @pytest.mark.parametrize("seed", ["x", 1.5, None, True])
    def test_a_seed_that_is_no_int_is_refused(self, seed):
        """Every draw mixes the seed as an integer: a plan built around
        another seed used to validate and then raise ``OverflowError``
        from its first draw, which ``JobExecutor.submit`` makes outside
        the fault containment."""
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=seed, mining_failure_rate=0.5)

    def test_spec_string_round_trip(self):
        plan = parse_fault_spec(
            "seed=7, mining_failure_rate=0.25, mining_delay_ops=40,"
            "fail_jobs=3:9, streams=a+b"
        )
        assert plan.seed == 7
        assert plan.mining_failure_rate == 0.25
        assert plan.mining_delay_ops == 40
        assert plan.fail_jobs == (3, 9)
        assert plan.streams == frozenset({"a", "b"})

    def test_retired_overrun_rate_is_accepted_at_zero_only(self):
        """The soft mining deadline is gone, and an injected overrun took
        the raise path: the retired key parses at 0 and is a bad fault
        spec at any other value."""
        plan = parse_fault_spec("seed=3,mining_overrun_rate=0")
        assert plan.seed == 3 and not hasattr(plan, "mining_overrun_rate")
        assert plan.mining_fault("s", 0) is None
        for raw in ("0.05", "nan", "x"):
            with pytest.raises(ValueError,
                               match="bad fault spec.*mining_overrun_rate"):
                parse_fault_spec(f"mining_overrun_rate={raw}")
        with pytest.raises(TypeError):
            FaultPlan(mining_overrun_rate=0.0)

    @pytest.mark.parametrize("raw", ["1@500", "1@500+2@800", "", "0"])
    def test_retired_drop_nodes_is_refused(self, raw):
        """A replica leaves its set one way, through the handle's
        ``drop_node()``: a spec that schedules drops is a bad fault spec
        at any value, and its message names the way that is left."""
        with pytest.raises(ValueError,
                           match=r"bad fault spec.*drop_nodes.*drop_node\(\)"):
            parse_fault_spec(f"seed=3,drop_nodes={raw}")
        with pytest.raises(TypeError):
            FaultPlan(drop_nodes=((1, 500),))

    @pytest.mark.parametrize("text", ["", "null", "NONE", "off"])
    def test_null_spellings(self, text):
        assert parse_fault_spec(text) is NULL_FAULT_PLAN

    @pytest.mark.parametrize("text", [
        "bogus=1", "seed", "seed=x", "fail_jobs=9", "drop_nodes=1:500",
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_fault_spec(text)

    def test_resolve_fault_plan(self):
        assert resolve_fault_plan(None) is NULL_FAULT_PLAN
        assert resolve_fault_plan("seed=3").seed == 3
        plan = FaultPlan(seed=9)
        assert resolve_fault_plan(plan) is plan
        with pytest.raises(ValueError, match="fault_plan"):
            resolve_fault_plan(42)

    def test_null_plan_is_inert(self):
        assert not NULL_FAULT_PLAN.active
        assert NULL_FAULT_PLAN.mining_fault("s", 0) is None

    def test_config_env_flow(self):
        cfg = build_config(
            env={"REPRO_FAULT_PLAN": "seed=3,mining_failure_rate=0.1"}
        )
        assert resolve_fault_plan(cfg.fault_plan).seed == 3
        # The default stays fault-free.
        assert build_config(env={}).fault_plan is None

    def test_config_validation_rejects_bad_plans(self):
        with pytest.raises(ValueError):
            build_config(env={}, fault_plan="bogus=1")
        with pytest.raises(ValueError, match="fault_quarantine_threshold"):
            build_config(env={}, fault_quarantine_threshold=0)

    def test_chaos_profile_validates_and_is_active(self):
        cfg = build_config(profile="chaos", env={})
        plan = resolve_fault_plan(cfg.fault_plan)
        assert plan.active
        assert cfg.fault_quarantine_threshold == 4



# ---------------------------------------------------------------------------
# Job-level containment (standalone JobExecutor)
# ---------------------------------------------------------------------------
class TestJobContainment:
    def test_real_mining_exception_is_contained(self):
        def broken(tokens, min_length):
            raise RuntimeError("suffix array exploded")

        executor = JobExecutor(repeats_algorithm=broken, memo=MiningMemo(8))
        job = executor.submit(REPEATING_WINDOW, MIN_LENGTH, now_op=0)
        assert job.degraded
        assert job.result == []
        assert executor.mining_failures == 1
        assert executor.degraded_jobs == 1
        # The failure never touched the memo.
        assert len(executor.memo) == 0

    def test_injected_raise_window_then_recovery(self):
        executor = JobExecutor(
            fault_plan=FaultPlan(fail_jobs=(0, 2)), stream_key="t"
        )
        first = executor.submit(REPEATING_WINDOW, MIN_LENGTH, 0)
        second = executor.submit(REPEATING_WINDOW, MIN_LENGTH, 100)
        third = executor.submit(REPEATING_WINDOW, MIN_LENGTH, 200)
        assert first.degraded and second.degraded
        assert first.result == [] and second.result == []
        assert not third.degraded
        assert third.result  # healthy job found the real repeats
        assert executor.mining_failures == 2

    def test_delay_fault_shifts_completion_not_result(self):
        clean = JobExecutor()
        delayed = JobExecutor(
            fault_plan=FaultPlan(mining_delay_rate=1.0, mining_delay_ops=500),
            stream_key="t",
        )
        reference = clean.submit(REPEATING_WINDOW, MIN_LENGTH, 0)
        late = delayed.submit(REPEATING_WINDOW, MIN_LENGTH, 0)
        assert late.completes_at_op == reference.completes_at_op + 500
        assert not late.degraded
        assert late.result == reference.result
        assert delayed.degraded_jobs == 0

    def test_poisoned_result_never_enters_shared_memo(self):
        """The memo regression: tenant A's failure must not cache an
        empty result that answers tenant B's identical window."""
        memo = MiningMemo(capacity=8)
        faulty = JobExecutor(
            memo=memo, stream_key="a",
            fault_plan=FaultPlan(fail_jobs=(0, 1), streams=("a",)),
        )
        healthy = JobExecutor(memo=memo, stream_key="b")

        poisoned = faulty.submit(REPEATING_WINDOW, MIN_LENGTH, 0)
        assert poisoned.degraded and poisoned.result == []
        assert len(memo) == 0  # nothing cached by the failure

        real = healthy.submit(REPEATING_WINDOW, MIN_LENGTH, 0)
        assert not real.degraded and real.result
        assert healthy.memo_hits == 0  # computed, not served a poison hit

        # The recovered faulty tenant now gets the *real* cached answer.
        recovered = faulty.submit(REPEATING_WINDOW, MIN_LENGTH, 100)
        assert not recovered.degraded
        assert recovered.result == real.result
        assert faulty.memo_hits == 1

    def test_default_executor_runs_null_plan(self):
        executor = JobExecutor()
        assert executor.fault_plan is NULL_FAULT_PLAN
        assert not executor.quarantined
        job = executor.submit(REPEATING_WINDOW, MIN_LENGTH, 0)
        assert not job.degraded and job.result


# ---------------------------------------------------------------------------
# Quarantine: the circuit breaker and the service lane it protects
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trip_probe_and_recovery(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert not breaker.quarantined  # streak of 2 < threshold
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.quarantined and not breaker.probing
        # Backoff: threshold consecutive submits stay degraded.
        for _ in range(3):
            assert not breaker.allow()
        # Then exactly one probe is admitted.
        assert breaker.allow()
        assert breaker.probing
        assert not breaker.allow()  # probe in flight, others stay degraded
        breaker.record_success()
        assert not breaker.quarantined and not breaker.probing
        assert breaker.allow()  # healthy again: every job runs

    def test_failed_probe_doubles_backoff(self):
        breaker = CircuitBreaker(threshold=2)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.quarantined and breaker.backoff == 2
        for _ in range(2):
            assert not breaker.allow()
        assert breaker.allow()  # probe
        breaker.record_failure()
        assert breaker.backoff == 4
        assert breaker.quarantined

    def test_backoff_is_capped(self):
        breaker = CircuitBreaker(threshold=2)
        for _ in range(2):
            breaker.record_failure()
        for _ in range(20):  # repeatedly fail probes
            while not breaker.allow():
                pass
            breaker.record_failure()
        assert breaker.backoff == MAX_PROBE_BACKOFF

    def test_success_resets_streak(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.quarantined

    @pytest.mark.parametrize("threshold", [None, 0])
    def test_disabled_breaker_never_quarantines(self, threshold):
        breaker = CircuitBreaker(threshold)
        for _ in range(100):
            assert breaker.allow()
            breaker.record_failure()
        assert not breaker.quarantined
        assert breaker.consecutive_failures == 100


class TestLaneQuarantine:
    """A lane is a ``JobExecutor``: the breaker is consulted when the
    job's mining runs (the pump, or the first ``result`` read)."""

    def _lane(self, fail_hi, threshold=3):
        shared = SharedJobExecutor(
            memo_capacity=0, fault_plan=FaultPlan(fail_jobs=(0, fail_hi)),
        )
        return shared, shared.lane("t", quarantine_threshold=threshold)

    def test_lane_trips_serves_passthrough_then_recovers(self):
        shared, lane = self._lane(fail_hi=3, threshold=3)
        # Three contained failures trip the lane's breaker.
        for op in range(3):
            job = lane.submit(REPEATING_WINDOW, MIN_LENGTH, op * 100)
            assert job.result == [] and job.degraded
        assert lane.quarantined
        assert lane.mining_failures == 3
        # Quarantined jobs pump to the degraded result without mining.
        for op in range(3):  # backoff = max(2, threshold) = 3
            job = lane.submit(REPEATING_WINDOW, MIN_LENGTH, 300 + op * 100)
            assert shared.pump() == 1 and not shared.queue
            assert job.materialized and job.degraded
        assert lane.mining_failures == 3 and lane.degraded_jobs == 6
        # The next submit is the probe; past the fail window it succeeds.
        probe = lane.submit(REPEATING_WINDOW, MIN_LENGTH, 700)
        assert probe.result  # materializes healthy
        assert not probe.degraded
        assert not lane.quarantined and not lane.breaker.probing

    def test_failed_probe_requarantines_lane(self):
        shared, lane = self._lane(fail_hi=1000, threshold=2)
        op = 0

        def submit():
            nonlocal op
            op += 100
            job = lane.submit(REPEATING_WINDOW, MIN_LENGTH, op)
            return job.result is not None and job  # force materialization

        for _ in range(2):
            submit()
        assert lane.quarantined
        for _ in range(2):  # backoff
            assert submit().materialized
        submit()  # the probe -- still in the fail window, fails
        assert lane.quarantined
        assert lane.breaker.backoff == 4

    def test_quarantine_is_per_lane(self):
        shared = SharedJobExecutor(
            memo_capacity=0,
            fault_plan=FaultPlan(fail_jobs=(0, 1000), streams=("sick",)),
        )
        sick = shared.lane("sick", quarantine_threshold=2)
        healthy = shared.lane("healthy", quarantine_threshold=2)
        for op in range(3):
            sick.submit(REPEATING_WINDOW, MIN_LENGTH, op * 100).result
            job = healthy.submit(REPEATING_WINDOW, MIN_LENGTH, op * 100)
            assert job.result and not job.degraded
        assert sick.quarantined
        assert not healthy.quarantined


# ---------------------------------------------------------------------------
# One executor shape: the same faults and the same breaker on every backend
# ---------------------------------------------------------------------------
class TestOneExecutorOnEveryBackend:
    PLAN = "seed=7,mining_failure_rate=0.5,streams=tenant-a"

    def _serve(self, backend, stream):
        config = FAST_CONFIG.with_overrides(fault_plan=self.PLAN)
        with open_session("tenant-a", backend=backend,
                          config=config) as session:
            for iteration, task in stream:
                session.set_iteration(iteration)
                session.submit(task)
            session.flush()
            return session.stats(), session.snapshot().stable_digest()

    @pytest.mark.parametrize("backend", sorted(api.TRACING_BACKENDS))
    def test_fault_plan_is_keyed_by_session_id(self, backend, app_streams):
        """Regression: the standalone backend built its executor with no
        ``stream_key``, so a plan scoped to ``streams=tenant-a`` injected
        nothing there (0 failures against the service's count) and an
        unscoped one gave every standalone session one shared schedule.
        The same (plan, session id, stream) must fail the same way
        wherever it is served."""
        stream = app_streams["s3d"]
        stats, digest = self._serve(backend, stream)
        reference, service_digest = self._serve("service", stream)
        assert reference.mining_failures > 5  # the plan really fires
        assert stats.mining_failures == reference.mining_failures
        assert stats.degraded_jobs == reference.degraded_jobs
        if backend == "standalone":
            assert digest == service_digest

    @pytest.mark.parametrize("threshold", [None, 3])
    def test_session_config_sets_the_breaker_on_both_backends(
            self, threshold):
        """Regression: the service read a tenant's
        ``fault_quarantine_threshold=None`` -- the documented "quarantine
        disabled" -- as "inherit the service default", so the lane got a
        breaker with threshold 8 where the standalone executor got
        ``None``."""
        config = FAST_CONFIG.with_overrides(
            fault_quarantine_threshold=threshold
        )
        service = ApopheniaService(FAST_CONFIG)
        assert FAST_CONFIG.fault_quarantine_threshold == 8
        lane = service.open_session("t", config=config).lane
        standalone = api.StandaloneBackend(FAST_CONFIG).open_session(
            "t", config=config
        ).processor.executor
        assert lane.breaker.threshold is threshold
        assert standalone.breaker.threshold is threshold


# ---------------------------------------------------------------------------
# Session lifecycle: SessionClosedError and exception-safe teardown
# ---------------------------------------------------------------------------
class TestSessionClosedError:
    def test_exception_shape(self):
        err = SessionClosedError("tenant-1")
        assert err.session_id == "tenant-1"
        assert isinstance(err, KeyError) and isinstance(err, RuntimeError)
        assert "tenant-1" in str(err)

    def test_service_handle_ops_after_close(self, app_streams):
        service = ApopheniaService(FAST_CONFIG)
        handle = service.open_session("t")
        iteration, task = app_streams["jacobi"][0]
        handle.execute_task(task)
        service.close_session("t")
        for op in (lambda: handle.execute_task(task),
                   lambda: handle.set_iteration(1),
                   lambda: handle.flush()):
            with pytest.raises(SessionClosedError) as excinfo:
                op()
            assert excinfo.value.session_id == "t"

    def test_double_close_carries_session_key(self):
        service = ApopheniaService(FAST_CONFIG)
        service.open_session("t")
        service.close_session("t")
        with pytest.raises(SessionClosedError) as excinfo:
            service.close_session("t")
        assert excinfo.value.session_id == "t"
        # Compatible with the historical double-close contract.
        with pytest.raises(KeyError, match="unknown or already-closed"):
            service.close_session("t")

    @pytest.mark.parametrize("backend", ["standalone", "service"])
    def test_facade_ops_after_close(self, backend, app_streams):
        session = open_session("t", backend=backend, config=FAST_CONFIG)
        _, task = app_streams["jacobi"][0]
        session.submit(task)
        session.close()
        for op in (lambda: session.submit(task),
                   lambda: session.set_iteration(1),
                   lambda: session.flush(),
                   lambda: session.stats(),
                   lambda: session.snapshot(),
                   lambda: session.decision_trace()):
            with pytest.raises(SessionClosedError) as excinfo:
                op()
            assert excinfo.value.session_id == "t"

    def test_replicated_handle_after_close(self, app_streams):
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        handle = backend.open_session("r")
        _, task = app_streams["jacobi"][0]
        handle.execute_task(task)
        backend.close_session("r")
        with pytest.raises(SessionClosedError):
            handle.execute_task(task)
        with pytest.raises(SessionClosedError):
            handle.flush()
        with pytest.raises(SessionClosedError):
            backend.close_session("r")


class TestTeardownUnderFaults:
    def test_quarantined_session_closes_clean(self, app_streams):
        """Closing (or evicting) a quarantined tenant drops its lane,
        runtime, and handle exactly like a healthy one."""
        config = FAST_CONFIG.with_overrides(
            fault_plan=FaultPlan(fail_jobs=(0, 10**6), streams=("sick",)),
            fault_quarantine_threshold=2,
        )
        service = ApopheniaService(config)
        service.open_session("sick")
        service.open_session("fine")
        for sid in ("sick", "fine"):
            for iteration, task in app_streams["stencil"][:400]:
                service.set_iteration(sid, iteration)
                service.execute_task(sid, task)
        assert service.session("sick").lane.quarantined
        assert not service.session("fine").lane.quarantined
        sick = weakref.ref(service.session("sick").lane)
        service.close_session("sick")
        service.close_session("fine")
        gc.collect()
        assert sick() is None
        assert len(service.sessions) == 0
        assert not service.executor.queue

    def test_close_exception_safe_with_faulty_lane(self, app_streams,
                                                   monkeypatch):
        config = FAST_CONFIG.with_overrides(
            fault_plan=FaultPlan(seed=5, mining_failure_rate=0.5),
        )
        service = ApopheniaService(config)
        handle = service.open_session("crashy")
        for iteration, task in app_streams["jacobi"][:200]:
            service.set_iteration("crashy", iteration)
            service.execute_task("crashy", task)

        def boom():
            raise RuntimeError("flush failed")

        monkeypatch.setattr(handle.processor, "flush", boom)
        with pytest.raises(RuntimeError, match="flush failed"):
            service.close_session("crashy")
        assert handle.closed
        assert len(service.sessions) == 0
        service.open_session("crashy")  # nothing of it is left to collide with


# ---------------------------------------------------------------------------
# Replicated degradation: surviving a dropped node
# ---------------------------------------------------------------------------
class TestReplicatedNodeDrop:
    #: Node 2 dies once node 0 has observed this many ops.
    DROP_AT_OP = 400

    def _drive(self, target, stream, drop_at=None):
        """Serve ``stream`` through ``target`` (a handle, or a facade
        session); with ``drop_at``, drop node 2 before the first task
        issued once the reference replica's op clock reaches it."""
        handle = getattr(target, "handle", target)
        for iteration, task in stream:
            target.set_iteration(iteration)
            if (drop_at is not None and handle.nodes_dropped == 0
                    and handle.processor.finder.ops_observed >= drop_at):
                handle.drop_node(2)
            target.execute_task(task)
        target.flush()

    def test_session_survives_scheduled_node_drop(self, app_streams):
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        handle = backend.open_session("drop")
        self._drive(handle, app_streams["s3d"], drop_at=self.DROP_AT_OP)
        assert handle.num_nodes == 3
        assert handle.live_nodes == 2
        assert [p.node_id for p in handle.live_processors] == [0, 1]
        # The survivors kept byte-identical agreement through the drop.
        assert handle.decisions_agree()
        assert handle.processor.decision_trace()  # still actually tracing
        stats = backend.backend_stats
        assert stats["live_nodes"] == 2
        assert stats["nodes_dropped"] == 1
        # Only the pending head is still agreed: nothing is held for the
        # dead node to consume.
        assert stats["agreement_table_size"] <= 1
        backend.close_session("drop")
        assert backend.backend_stats["agreement_table_size"] == 0
        # The drop survives in the lifetime counters.
        assert backend.backend_stats["nodes_dropped"] == 1

    def test_drop_is_decision_neutral_for_survivors(self, app_streams):
        """Losing a replica only changes who consumes agreements; the
        survivors' decision stream must be byte-identical to a run where
        no node ever died."""
        stream = app_streams["jacobi"]
        clean_backend = ReplicatedBackend(REPLICATED_CONFIG)
        clean = clean_backend.open_session("drop")
        self._drive(clean, stream)
        reference = clean.decision_trace()
        clean_backend.close_session("drop")

        backend = ReplicatedBackend(REPLICATED_CONFIG)
        handle = backend.open_session("drop")
        self._drive(handle, stream, drop_at=self.DROP_AT_OP)
        assert handle.live_nodes == 2
        assert handle.decision_trace() == reference
        assert handle.decisions_agree()
        backend.close_session("drop")

    def test_manual_drop_guards(self, app_streams):
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        handle = backend.open_session("m")
        with pytest.raises(ValueError, match="not live"):
            handle.drop_node(7)
        assert handle.drop_node(2) == 2
        assert handle.drop_node(1) == 1
        with pytest.raises(ValueError, match="last live"):
            handle.drop_node(0)
        # Node 0 still serves alone.
        self._drive(handle, app_streams["jacobi"][:300])
        assert handle.live_nodes == 1
        assert handle.decisions_agree()  # trivially, one live node
        backend.close_session("m")

    def test_session_stats_carry_live_nodes(self, app_streams):
        backend = ReplicatedBackend(REPLICATED_CONFIG)
        with open_session("drop", backend=backend) as s:
            self._drive(s, app_streams["stencil"], drop_at=self.DROP_AT_OP)
            stats = s.stats()
            assert stats.nodes == 3
            assert stats.live_nodes == 2

    def test_injected_mining_faults_hit_all_replicas_identically(
        self, app_streams
    ):
        """One plan keyed by the session id: every replica degrades the
        same jobs, so the agreement invariant survives the faults."""
        config = REPLICATED_CONFIG.with_overrides(
            fault_plan=FaultPlan(seed=11, mining_failure_rate=0.3),
        )
        with open_session(
            "chaotic", backend="replicated", config=config
        ) as session:
            for iteration, task in app_streams["cfd"]:
                session.set_iteration(iteration)
                session.submit(task)
            session.flush()
            handle = session.handle
            failures = {
                p.executor.mining_failures for p in handle.processors
            }
            assert len(failures) == 1  # identical on every node
            assert failures.pop() > 0  # and the plan actually fired
            assert handle.decisions_agree()


# ---------------------------------------------------------------------------
# The headline chaos property
# ---------------------------------------------------------------------------
class TestChaosProperty:
    #: Faults scoped to half the tenant population; seeded, so the whole
    #: chaos run is deterministic end to end.
    CHAOS_PLAN = FaultPlan(
        seed=1234,
        mining_failure_rate=0.25,
        mining_delay_rate=0.15,
        mining_delay_ops=40,
        streams=("stencil-faulty", "cfd-faulty"),
    )

    def _streams(self, app_streams):
        return {
            "s3d-clean": app_streams["s3d"],
            "stencil-faulty": app_streams["stencil"],
            "jacobi-clean": app_streams["jacobi"],
            "cfd-faulty": app_streams["cfd"],
        }

    def test_service_survives_and_faultfree_tenants_unchanged(
        self, app_streams
    ):
        streams = self._streams(app_streams)
        clean, _ = run_service(streams, FAST_CONFIG)
        chaotic, service = run_service(
            streams,
            FAST_CONFIG.with_overrides(
                fault_plan=self.CHAOS_PLAN, fault_quarantine_threshold=4
            ),
        )
        # The service survived with every tenant's stream valid.
        for sid, outcome in chaotic.items():
            assert _conserves_tasks(outcome), sid
        # Faults actually fired on the targeted tenants...
        stats = service.backend_stats
        assert stats["mining_failures"] > 0
        assert stats["degraded_jobs"] > 0
        # ...and only there: fault-free tenants are byte-identical to
        # their no-fault runs, decisions included.
        for sid in ("s3d-clean", "jacobi-clean"):
            assert chaotic[sid].stats == clean[sid].stats, sid
            assert chaotic[sid].decision_trace == clean[sid].decision_trace
        # The faulty tenants genuinely degraded (not silently unscathed).
        assert all(
            service.session(sid).lane.degraded_jobs > 0
            for sid in ("stencil-faulty", "cfd-faulty")
        )
        assert all(
            service.session(sid).lane.degraded_jobs == 0
            for sid in ("s3d-clean", "jacobi-clean")
        )

    def test_chaos_runs_are_reproducible(self, app_streams):
        streams = self._streams(app_streams)
        config = FAST_CONFIG.with_overrides(fault_plan=self.CHAOS_PLAN)
        first, first_service = run_service(streams, config)
        second, second_service = run_service(streams, config)
        for sid in streams:
            assert first[sid].stats == second[sid].stats, sid
            assert first[sid].decision_trace == second[sid].decision_trace
        for key in ("mining_failures", "degraded_jobs"):
            assert first_service.backend_stats[key] == second_service.backend_stats[key]

    def test_degradation_gauges_reach_the_stats_facade(self, app_streams):
        config = FAST_CONFIG.with_overrides(
            fault_plan=FaultPlan(seed=2, mining_failure_rate=0.3),
        )
        with open_session(
            "gauged", backend="service", config=config
        ) as session:
            for iteration, task in app_streams["s3d"]:
                session.set_iteration(iteration)
                session.submit(task)
            session.flush()
            stats = session.stats()
            assert stats.mining_failures > 0
            assert stats.degraded_jobs >= stats.mining_failures
            assert stats.live_nodes == 1
            assert isinstance(stats.quarantined, bool)

    def test_delay_only_chaos_stays_healthy(self, app_streams):
        """Pure delay faults shift job completions without any failure:
        no degraded jobs, conservation holds, the stream stays valid."""
        config = FAST_CONFIG.with_overrides(
            fault_plan=FaultPlan(
                seed=3, mining_delay_rate=0.5, mining_delay_ops=60
            ),
        )
        outcomes, service = run_service(
            {"delayed": app_streams["jacobi"]}, config
        )
        assert _conserves_tasks(outcomes["delayed"])
        assert service.backend_stats["mining_failures"] == 0
        assert service.backend_stats["degraded_jobs"] == 0
