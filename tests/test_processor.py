"""End-to-end ApopheniaProcessor tests (Algorithm 1)."""

import pytest

from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.runtime.privilege import Privilege
from repro.runtime.runtime import Runtime, TaskMode
from repro.runtime.task import task

RO = Privilege.READ_ONLY
WD = Privilege.WRITE_DISCARD

FAST_CONFIG = dict(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)


def jacobi_fixture(analysis_mode="full"):
    rt = Runtime(analysis_mode=analysis_mode)
    proc = ApopheniaProcessor(rt, ApopheniaConfig(**FAST_CONFIG))
    f = rt.forest
    regions = {
        name: f.create_region((64,), name=name)
        for name in ("R", "b", "d", "x1", "x2", "t1", "t2")
    }

    def iteration(i):
        xin = regions["x1"] if i % 2 == 0 else regions["x2"]
        xout = regions["x2"] if i % 2 == 0 else regions["x1"]
        rt.set_iteration(i)
        proc.execute_task(
            task("DOT", (regions["R"], RO), (xin, RO), (regions["t1"], WD))
        )
        proc.execute_task(
            task("SUB", (regions["b"], RO), (regions["t1"], RO), (regions["t2"], WD))
        )
        proc.execute_task(
            task("DIV", (regions["t2"], RO), (regions["d"], RO), (xout, WD))
        )

    return rt, proc, iteration


class TestJacobiEndToEnd:
    def test_period2_stream_is_traced(self):
        """The paper's motivating example: Apophenia discovers the
        period-2 repetition no syntactic annotation can express."""
        rt, proc, iteration = jacobi_fixture()
        for i in range(300):
            iteration(i)
        proc.flush()
        assert rt.traced_fraction() > 0.8
        assert rt.engine.traces_replayed >= 8
        assert rt.engine.mismatches == 0

    def test_all_tasks_forwarded_in_order(self):
        rt, proc, iteration = jacobi_fixture(analysis_mode="fast")
        for i in range(100):
            iteration(i)
        proc.flush()
        uids = [r.uid for r in rt.task_log]
        assert uids == sorted(uids)
        assert len(uids) == 300

    def test_traces_have_even_period(self):
        """Fired traces must span full period-2 units: their length is a
        multiple of 6 tasks (two iterations of three tasks)."""
        rt, proc, iteration = jacobi_fixture(analysis_mode="fast")
        for i in range(300):
            iteration(i)
        proc.flush()
        for trace_id, length in proc.trace_log:
            assert length % 6 == 0, f"trace of length {length} not period-2"

    def test_dependences_match_untraced_run(self):
        """Tracing must not change the dependence structure: per-task
        dependency counts equal those of an identical untraced run."""
        rt_a, proc, iteration_a = jacobi_fixture()
        for i in range(60):
            iteration_a(i)
        proc.flush()

        rt_b = Runtime(analysis_mode="full")
        f = rt_b.forest
        regions = {
            name: f.create_region((64,), name=name)
            for name in ("R", "b", "d", "x1", "x2", "t1", "t2")
        }
        tasks_b = []
        for i in range(60):
            xin = regions["x1"] if i % 2 == 0 else regions["x2"]
            xout = regions["x2"] if i % 2 == 0 else regions["x1"]
            for t in (
                task("DOT", (regions["R"], RO), (xin, RO), (regions["t1"], WD)),
                task("SUB", (regions["b"], RO), (regions["t1"], RO), (regions["t2"], WD)),
                task("DIV", (regions["t2"], RO), (regions["d"], RO), (xout, WD)),
            ):
                rt_b.execute_task(t)
                tasks_b.append(t)

        logged_a = [r.uid for r in rt_a.task_log]
        assert len(logged_a) == len(tasks_b)
        for uid_a, t_b in zip(logged_a, tasks_b):
            deps_a = rt_a.dependences[uid_a].depends_on
            deps_b = rt_b.dependences[t_b.uid].depends_on
            assert len(deps_a) == len(deps_b)


class TestConfig:
    def test_flag_names_match_artifact(self):
        cfg = ApopheniaConfig(
            min_trace_length=25,
            max_trace_length=200,
            batchsize=5000,
            multi_scale_factor=500,
        )
        assert cfg.min_trace_length == 25
        assert cfg.max_trace_length == 200

    def test_with_overrides(self):
        cfg = ApopheniaConfig()
        assert cfg.with_overrides(batchsize=9).batchsize == 9
        assert cfg.batchsize == 5000

    def test_min_trace_length_respected(self):
        rt, proc, iteration = jacobi_fixture(analysis_mode="fast")
        proc.config = proc.config  # frozen dataclass sanity
        for i in range(120):
            iteration(i)
        proc.flush()
        for _, length in proc.trace_log:
            assert length >= proc.config.min_trace_length

    def test_max_trace_length_respected(self):
        rt = Runtime(analysis_mode="fast")
        proc = ApopheniaProcessor(
            rt, ApopheniaConfig(max_trace_length=6, **{
                k: v for k, v in FAST_CONFIG.items() if k != "min_trace_length"
            }, min_trace_length=3)
        )
        regions = [rt.forest.create_region((8,)) for _ in range(4)]
        for rep in range(60):
            for j in range(3):
                proc.execute_task(
                    task(f"T{j}", (regions[j], RO), (regions[j + 1], WD))
                )
        proc.flush()
        assert proc.trace_log
        for _, length in proc.trace_log:
            assert length <= 6

    def test_processor_sets_auto_flag(self):
        rt = Runtime()
        assert not rt.auto_tracing
        ApopheniaProcessor(rt)
        assert rt.auto_tracing  # launches now cost 12us

    def test_fence_flushes(self):
        rt, proc, iteration = jacobi_fixture(analysis_mode="fast")
        for i in range(10):
            iteration(i)
        proc.fence()
        assert len(rt.task_log) == 30
