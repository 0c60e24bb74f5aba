"""The five paper applications plus the stencil teaching workload."""

import pytest

from repro.apps import APP_REGISTRY, build_app
from repro.apps.jacobi import figure1_stream, jacobi_task_stream
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.runtime.errors import TraceMismatchError
from repro.runtime.machine import EOS, PERLMUTTER
from repro.runtime.runtime import Runtime

FAST = dict(task_scale=0.1, analysis_mode="fast")


class TestRegistry:
    def test_all_apps_registered(self):
        assert set(APP_REGISTRY) == {
            "s3d", "htr", "cfd", "torchswe", "flexflow", "stencil",
            "generative",
        }

    def test_unknown_app(self):
        with pytest.raises(ValueError):
            build_app("does-not-exist")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            build_app("s3d", mode="telepathic")


class TestStreamStructure:
    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_every_app_runs_untraced(self, name):
        app = build_app(name, mode="untraced", gpus=4, **FAST)
        rt = app.run(6)
        assert len(rt.task_log) > 0
        assert rt.engine.traces_recorded == 0

    @pytest.mark.parametrize("name", ["s3d", "htr", "flexflow", "stencil"])
    def test_manual_tracing_valid(self, name):
        """Manual annotations replay without mismatches (these apps had
        manually traced versions in the paper)."""
        app = build_app(name, mode="manual", gpus=4, **FAST)
        rt = app.run(25)
        assert rt.engine.mismatches == 0
        assert rt.engine.traces_replayed > 10

    @pytest.mark.parametrize("name", ["cfd", "torchswe"])
    def test_cupynumeric_apps_reject_manual(self, name):
        """No manually traced CFD/TorchSWE exists (Section 6.1)."""
        with pytest.raises(ValueError):
            build_app(name, mode="manual", gpus=4, **FAST)

    def test_s3d_handoff_schedule(self):
        app = build_app("s3d", mode="untraced", gpus=4, **FAST)
        due = [i for i in range(40) if app.handoff_due(i)]
        assert due == list(range(10)) + [10, 20, 30]

    def test_s3d_stream_has_handoff_tasks(self):
        app = build_app("s3d", mode="untraced", gpus=4, **FAST)
        rt = app.run(3)
        names = {r.name for r in rt.task_log}
        assert "COPY_TO_FORTRAN" in names and "MPI_EXCHANGE" in names

    def test_torchswe_period_two(self):
        """TorchSWE's allocator steady state repeats every 2 iterations."""
        from repro.core.hashing import TaskHasher

        app = build_app("torchswe", machine=EOS, gpus=8, mode="untraced",
                        analysis_mode="fast")
        hasher = TaskHasher(ApopheniaConfig().batchsize)
        tokens = []
        orig = app.executor.execute_task
        app.executor.execute_task = lambda t: (tokens.append(hasher.hash_task(t)), orig(t))
        app.run(12)
        per = len(tokens) // 12
        # Period two: windows of 2 iterations repeat...
        assert tokens[-4 * per : -2 * per] == tokens[-2 * per :]
        # ...but adjacent single iterations differ (not period one).
        assert tokens[-2 * per : -per] != tokens[-per:]

    def test_flexflow_strong_scaling_task_time(self):
        app1 = build_app("flexflow", machine=EOS, gpus=1, mode="untraced",
                         analysis_mode="fast")
        app32 = build_app("flexflow", machine=EOS, gpus=32, mode="untraced",
                          analysis_mode="fast")
        assert app32.step_task_time == pytest.approx(app1.step_task_time / 32)
        assert app1.allreduce_time() == 0.0
        assert app32.allreduce_time() > 0.0

    def test_weak_scaling_task_time_constant(self):
        app4 = build_app("s3d", gpus=4, mode="untraced", **FAST)
        app64 = build_app("s3d", gpus=64, mode="untraced", **FAST)
        assert app4.task_time == app64.task_time

    def test_sizes_ordering(self):
        for name, cls in APP_REGISTRY.items():
            assert cls.sizes["s"] <= cls.sizes["m"] <= cls.sizes["l"]


class TestJacobiExample:
    def test_figure1_stream_shape(self):
        stream = figure1_stream(4)
        assert len(stream) == 12
        assert stream[0] == ("DOT", ("R", "x1", "t1"))
        assert stream[2] == ("DIV", ("t2", "d", "x2"))
        assert stream[5] == ("DIV", ("t2", "d", "x1"))
        # Iterations i and i+1 differ; i and i+2 are identical.
        assert stream[0:3] != stream[3:6]
        assert stream[0:3] == stream[6:9]

    def test_natural_annotation_is_invalid(self):
        """Section 2: wrapping each loop iteration in the same trace id
        raises a trace mismatch, because iteration i+1 issues different
        region arguments than iteration i."""
        rt = Runtime(analysis_mode="fast", mismatch_policy="error")
        from repro.arrays.array import ArrayContext

        class Annotating:
            def __init__(self, runtime):
                self.runtime = runtime

            def execute_task(self, task):
                self.runtime.execute_task(task)

        ctx = ArrayContext(Annotating(rt), rt.forest)
        a = ctx.random((8, 8), seed=0)
        b = ctx.random((8,), seed=1)
        x = ctx.zeros((8,))
        d = a.diag()
        r = a - d.diag()
        # Warm the allocator into its steady state first.
        for _ in range(4):
            x = (b - r.dot(x)) / d
        with pytest.raises(TraceMismatchError):
            for _ in range(4):
                rt.begin_trace("loop")
                x = (b - r.dot(x)) / d
                rt.end_trace("loop")

    def test_apophenia_traces_the_same_program(self):
        """Apophenia handles what the natural annotation cannot."""
        rt = Runtime(analysis_mode="fast")
        proc = ApopheniaProcessor(
            rt,
            ApopheniaConfig(
                min_trace_length=3,
                batchsize=200,
                multi_scale_factor=25,
                job_base_latency_ops=10,
                initial_ingest_margin_ops=20,
            ),
        )
        ctx, x = jacobi_task_stream(proc, rt.forest, iterations=250)
        proc.flush()
        assert rt.engine.mismatches == 0
        assert rt.traced_fraction() > 0.7


class TestThroughputShapes:
    """Cheap versions of the headline performance relationships."""

    def test_s3d_tracing_beats_untraced(self):
        results = {}
        for mode in ("untraced", "manual", "auto"):
            app = build_app("s3d", machine=PERLMUTTER, gpus=4, size="s",
                            mode=mode, task_scale=0.25)
            rt = app.run(70)
            results[mode] = rt.throughput(50, 66)
        assert results["manual"] > 1.5 * results["untraced"]
        assert 0.85 <= results["auto"] / results["manual"] <= 1.1

    def test_torchswe_auto_beats_untraced(self):
        results = {}
        for mode in ("untraced", "auto"):
            app = build_app("torchswe", machine=EOS, gpus=8, size="s",
                            mode=mode, task_scale=0.5)
            rt = app.run(90)
            results[mode] = rt.throughput(60, 80)
        assert results["auto"] > 1.5 * results["untraced"]

    def test_untraced_falls_off_at_scale(self):
        small = build_app("cfd", machine=EOS, gpus=1, size="s",
                          mode="untraced", task_scale=0.25).run(20)
        large = build_app("cfd", machine=EOS, gpus=64, size="s",
                          mode="untraced", task_scale=0.25).run(20)
        assert large.throughput(10, 18) < small.throughput(10, 18)
