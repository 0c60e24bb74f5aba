"""Multi-tenant service layer: decision neutrality, eviction, sharing.

The service's load-bearing invariant is that multiplexing changes
throughput, never decisions: every session's replayer counters and trace
boundaries must be byte-identical to running its application alone.
"""

from collections import deque

import pytest

from repro.api import open_session
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.apps.base import capture_stream
from repro.experiments.multi_tenant import run_isolated, run_service
from repro.runtime.runtime import Runtime
from repro.service import ApopheniaService, SharedJobExecutor
from repro.service.service import collect_session_stats

pytestmark = pytest.mark.service

#: Small enough for tier-1, large enough to fire traces and reach the
#: full-buffer slice of the sampling schedule (period 16 at 200/25).
FAST_CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)


@pytest.fixture(scope="module")
def app_streams():
    """One small captured stream per application type."""
    return {
        name: capture_stream(name, 800, task_scale=0.05)
        for name in ("s3d", "stencil", "jacobi", "cfd")
    }


def _fast_runtime():
    return Runtime(
        analysis_mode="fast", mismatch_policy="fallback", keep_task_log=False
    )


class TestDecisionNeutrality:
    def test_interleaved_sessions_match_isolated_runs(self, app_streams):
        """The property test: four different apps interleaved task by task
        through one service make exactly the decisions they make alone."""
        streams = {f"{name}-0": stream for name, stream in app_streams.items()}
        isolated = run_isolated(streams, FAST_CONFIG)
        served, service = run_service(streams, FAST_CONFIG)
        for sid in streams:
            assert served[sid].stats == isolated[sid].stats, sid
            assert served[sid].decision_trace == isolated[sid].decision_trace, sid
        # The sessions actually did tracing work (the test is not vacuous).
        assert any(o.stats[3] > 0 for o in served.values())  # traces_fired

    def test_duplicate_tenants_share_mining(self, app_streams):
        """Two tenants running the same app: the second one's windows hit
        the shared memo, and both still decide exactly as if alone."""
        streams = {
            "jacobi-a": app_streams["jacobi"],
            "jacobi-b": app_streams["jacobi"],
        }
        isolated = run_isolated(streams, FAST_CONFIG)
        served, service = run_service(streams, FAST_CONFIG)
        for sid in streams:
            assert served[sid].stats == isolated[sid].stats
            assert served[sid].decision_trace == isolated[sid].decision_trace
        # Task-by-task round-robin means the pair submits identical windows
        # back to back: at least half of all jobs are answered by the memo.
        stats = service.backend_stats
        assert stats["memo_hits"] >= stats["mines_executed"]
        # Cross-session hits landed on the individual lanes.
        lane_hits = [served[sid].memo_hits for sid in streams]
        assert sum(lane_hits) == stats["memo_hits"]

    def test_eight_tenants_round_robin_match_isolated_and_share(
            self, app_streams):
        """Two tenants each of s3d / stencil / jacobi / cfd, round-robin
        through one service: no tenant's decisions diverge from its
        isolated run, and the shared memo answers most mining jobs."""
        streams = {
            f"{name}-{i}": app_streams[name]
            for i, name in enumerate(("s3d", "stencil", "jacobi", "cfd") * 2)
        }
        isolated = run_isolated(streams, FAST_CONFIG)
        served, service = run_service(streams, FAST_CONFIG)
        divergent = [
            sid for sid in streams
            if served[sid].stats != isolated[sid].stats
            or served[sid].decision_trace != isolated[sid].decision_trace
        ]
        assert divergent == []
        assert service.backend_stats["memo_hit_rate"] > 0.5

    def test_evicted_session_decided_like_standalone(self, app_streams):
        """Eviction flushes the victim mid-stream; everything it decided up
        to that point must match a standalone run of the same prefix."""
        stream = app_streams["stencil"]
        prefix = stream[:400]

        service = ApopheniaService(FAST_CONFIG.with_overrides(max_sessions=1))
        service.open_session("victim")
        for iteration, task in prefix:
            service.set_iteration("victim", iteration)
            service.execute_task("victim", task)
        victim = service.session("victim")
        service.open_session("usurper")  # evicts and flushes the victim
        assert victim.closed
        assert service.sessions_evicted == 1

        standalone = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
        for iteration, task in prefix:
            standalone.set_iteration(iteration)
            standalone.execute_task(task)
        standalone.flush()
        assert victim.stats.replayer_counters() == \
            collect_session_stats(standalone).replayer_counters()
        assert victim.decision_trace() == standalone.decision_trace()


class TestSessionLifecycle:
    def test_open_duplicate_rejected(self):
        service = ApopheniaService(FAST_CONFIG)
        service.open_session("a")
        with pytest.raises(ValueError):
            service.open_session("a")

    def test_lru_eviction_order(self):
        service = ApopheniaService(FAST_CONFIG.with_overrides(max_sessions=2))
        service.open_session("a")
        service.open_session("b")
        # Touch "a" so "b" becomes the least recently used.
        from repro.runtime.task import Task

        service.execute_task("a", Task("T"))
        service.open_session("c")
        assert set(service.sessions) == {"a", "c"}
        assert service.sessions_evicted == 1

    def test_closed_session_rejects_tasks(self):
        from repro.runtime.task import Task

        service = ApopheniaService(FAST_CONFIG)
        handle = service.open_session("a")
        service.close_session("a")
        assert handle.closed
        with pytest.raises(KeyError):
            service.execute_task("a", Task("T"))
        with pytest.raises(RuntimeError):
            handle.execute_task(Task("T"))

    def test_close_flushes_buffered_tasks(self):
        from repro.runtime.task import Task

        service = ApopheniaService(FAST_CONFIG)
        handle = service.open_session("a")
        for i in range(10):
            service.execute_task("a", Task(f"T{i % 2}"))
        service.close_session("a")
        # Every task reached the session's runtime (none stuck buffered):
        # each launch charged the application stage once.
        runtime = handle.runtime
        assert runtime.pipeline.app_clock == pytest.approx(
            10 * runtime.cost_model.launch(runtime.auto_tracing))
        assert handle.stats.tasks_seen == 10
        assert handle.stats.tasks_flushed + handle.stats.tasks_traced == 10

    def test_close_unknown_session_raises_clear_error(self):
        service = ApopheniaService(FAST_CONFIG)
        with pytest.raises(KeyError, match="unknown or already-closed"):
            service.close_session("never-opened")
        service.open_session("a")
        service.close_session("a")
        with pytest.raises(KeyError, match="unknown or already-closed"):
            service.close_session("a")  # double close: same clear error


class TestServingPathRouting:
    """``flush`` and ``set_iteration`` must route through the service
    exactly like ``execute_task``: LRU stamp plus pump.
    Before the fix a flush/iteration-heavy tenant looked idle and was
    evicted despite being active."""

    def test_handle_flush_refreshes_lru_stamp(self):
        from repro.runtime.task import Task

        service = ApopheniaService(FAST_CONFIG.with_overrides(max_sessions=2))
        a = service.open_session("a")
        service.open_session("b")
        service.execute_task("b", Task("T"))  # b is now hotter than a
        a.flush()  # a is an active (flush-heavy) tenant
        service.open_session("c")
        # The eviction victim must be b -- a flushed more recently.
        assert set(service.sessions) == {"a", "c"}

    def test_handle_set_iteration_refreshes_lru_stamp(self):
        from repro.runtime.task import Task

        service = ApopheniaService(FAST_CONFIG.with_overrides(max_sessions=2))
        a = service.open_session("a")
        service.open_session("b")
        service.execute_task("b", Task("T"))
        a.set_iteration(17)  # iteration marks count as activity too
        service.open_session("c")
        assert set(service.sessions) == {"a", "c"}

    def test_handle_flush_pumps_shared_scheduler(self):
        service = ApopheniaService(FAST_CONFIG)
        a = service.open_session("a")
        job = a.lane.submit([1, 2] * 6, 2, now_op=0)
        assert list(service.executor.queue) == [job]
        assert not job.materialized
        a.flush()
        assert not service.executor.queue
        assert job.materialized

    def test_closed_handle_rejects_flush_and_set_iteration(self):
        service = ApopheniaService(FAST_CONFIG)
        handle = service.open_session("a")
        service.close_session("a")
        with pytest.raises(RuntimeError, match="closed"):
            handle.flush()
        with pytest.raises(RuntimeError, match="closed"):
            handle.set_iteration(3)


class TestSharedExecutor:
    def _counting(self, log):
        def algorithm(tokens, min_length):
            log.append(tuple(tokens))
            return []

        return algorithm

    def test_pump_drains_the_fifo_in_submission_order(self):
        log = []
        shared = SharedJobExecutor(self._counting(log), memo_capacity=0)
        a = shared.lane("a")
        b = shared.lane("b")
        jobs = [a.submit([("a", 0)] * 4, 1, now_op=0),
                b.submit([("b", 0)] * 4, 1, now_op=0),
                a.submit([("a", 1)] * 4, 1, now_op=1)]
        assert list(shared.queue) == jobs and not log
        assert shared.pump() == 3
        assert [window[0] for window in log] == [("a", 0), ("b", 0), ("a", 1)]
        assert not shared.queue and all(job.materialized for job in jobs)

    def test_result_forces_lazy_job(self):
        """A job drained in its own submit op is ingested -- its
        ``result`` read -- before the service reaches its pump: the read
        runs the mining, and the pump then only drops the queue entry."""
        log = []
        service = ApopheniaService(
            FAST_CONFIG.with_overrides(job_base_latency_ops=0)
        )
        service.executor.repeats_algorithm = self._counting(log)
        handle = service.open_session("a")
        handle.lane.per_token_latency_ops = 0.0
        pumped = []
        pump = service.executor.pump
        service.executor.pump = lambda: pumped.append(pump())
        from repro.runtime.task import Task

        for i in range(60):
            handle.execute_task(Task(f"T{i % 3}"))
        assert handle.lane.jobs_submitted == len(log) == len(pumped) > 0
        assert set(pumped) == {0}  # every job was forced before its pump
        # The same thing by hand: a read ahead of the pump mines once.
        job = handle.lane.submit([1, 2, 1, 2], 1, now_op=0)
        assert not job.materialized
        assert job.result == [] and job.materialized
        service.executor.pump()
        assert pumped[-1] == 0
        assert len(log) == handle.lane.jobs_submitted

    def test_release_lane_keeps_jobs_usable(self):
        log = []
        shared = SharedJobExecutor(self._counting(log), memo_capacity=0)
        lane = shared.lane("a")
        job = lane.submit([1, 2, 3, 4], 1, now_op=0)
        # The executor keeps no table of lanes: dropping the lane is the
        # release, and the name is free for a future session at once.
        assert shared.lane("a") is not lane
        del lane
        assert job.result == []  # still materializes: it carries its thunk
        assert shared.pump() == 0 and not shared.queue

    def test_memo_shared_across_lanes(self):
        log = []
        shared = SharedJobExecutor(self._counting(log), memo_capacity=8)
        a = shared.lane("a")
        b = shared.lane("b")
        a.submit([1, 2, 1, 2], 1, now_op=0)
        b.submit([1, 2, 1, 2], 1, now_op=0)
        shared.pump()
        assert len(log) == 1
        assert a.memo_hits == 0 and b.memo_hits == 1


class _DepthDeque(deque):
    """The shared FIFO, remembering how deep it ever got."""

    peak = 0

    def append(self, job):
        super().append(job)
        self.peak = max(self.peak, len(self))


class TestQueueTraffic:
    """The fact the scheduler's deletion rests on (PR 15): through the
    public surface the shared FIFO is empty after every serving call and
    never holds more than one job inside it. A future path that queues
    without pumping fails here, rather than silently needing a scheduler
    again."""

    def test_fifo_is_empty_between_calls_and_never_deeper_than_one(
            self, app_streams):
        service = ApopheniaService(FAST_CONFIG.with_overrides(
            max_sessions=8, session_state_budget=1_000_000,
        ))
        queue = service.executor.queue = _DepthDeque()
        calls = 0

        def settled():
            nonlocal calls
            calls += 1
            assert not queue, f"job left queued after public call {calls}"

        names = ("s3d", "stencil", "jacobi", "cfd") * 2
        streams = {f"{name}-{i}": app_streams[name]
                   for i, name in enumerate(names)}
        sessions = {}
        for sid in streams:
            sessions[sid] = open_session(sid, backend=service)
            settled()
        # Task-by-task round-robin, iteration marks included.
        for step in range(400):
            for sid, stream in streams.items():
                iteration, task = stream[step]
                sessions[sid].set_iteration(iteration)
                settled()
                sessions[sid].submit(task)
                settled()
        # LRU evict -> readmit: a ninth tenant spills the coldest one,
        # which then comes back warm (spilling the next-coldest).
        victim = next(iter(streams))
        sessions["extra"] = open_session("extra", backend=service)
        settled()
        assert sessions[victim].handle.closed
        sessions[victim] = open_session(victim, backend=service)
        settled()
        assert service.backend_stats["warm_starts"] == 1
        # Bursts, fences and snapshots on whoever is still being served.
        for sid, stream in streams.items():
            session = sessions[sid]
            if session.handle.closed:
                continue
            session.submit_many(task for _, task in stream[400:])
            settled()
            session.flush()
            settled()
            session.dehydrate()
            settled()
        service.flush_all()
        settled()
        jobs = service.backend_stats["jobs_submitted"]
        assert jobs > 100 and queue.peak == 1


