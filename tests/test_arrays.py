"""The mini-cuPyNumeric array layer: pool reuse, task streams, numerics."""

import numpy as np
import pytest

from repro.arrays.allocator import RegionPool
from repro.arrays.array import ArrayContext
from repro.runtime.region import RegionForest
from repro.runtime.runtime import Runtime


class Recorder:
    """Captures the task stream an array program issues."""

    def __init__(self):
        self.tasks = []

    def execute_task(self, task):
        self.tasks.append(task)


@pytest.fixture
def recorder():
    return Recorder()


@pytest.fixture
def ctx(recorder):
    return ArrayContext(recorder, RegionForest())


class TestRegionPool:
    def test_fresh_allocation(self):
        pool = RegionPool(RegionForest())
        r = pool.allocate((4, 4))
        assert r.extent == (4, 4)
        # A fresh region every time while nothing has been released.
        assert pool.allocate((4, 4)) is not r
        assert pool.free_count() == 0

    def test_lifo_reuse(self):
        pool = RegionPool(RegionForest())
        a = pool.allocate((4,))
        b = pool.allocate((4,))
        pool.release(a)
        pool.release(b)
        # Most recently freed comes back first.
        assert pool.allocate((4,)) is b
        assert pool.allocate((4,)) is a
        assert pool.free_count() == 0

    def test_shapes_pooled_separately(self):
        pool = RegionPool(RegionForest())
        a = pool.allocate((4,))
        pool.release(a)
        c = pool.allocate((8,))
        assert c is not a
        assert pool.free_count((4,)) == 1
        assert pool.free_count() == 1


class TestTaskStream:
    def test_binary_op_requirements(self, recorder, ctx):
        a = ctx.zeros((4,))
        b = ctx.zeros((4,))
        c = a + b
        add = recorder.tasks[-1]
        assert add.name == "ADD"
        privs = [req.privilege.value for req in add.requirements]
        assert privs == ["read_only", "read_only", "write_discard"]
        assert add.requirements[-1].region is c.region

    def test_each_op_is_one_task(self, recorder, ctx):
        a = ctx.zeros((4,))
        b = ctx.zeros((4,))
        before = len(recorder.tasks)
        _ = ((a + b) - a) * b
        assert len(recorder.tasks) - before == 3

    def test_scalar_operand_rejected(self, ctx):
        a = ctx.zeros((4,))
        with pytest.raises(TypeError):
            a + 1

    def test_figure1_region_alternation(self, recorder, ctx):
        """The paper's Figure 1: x alternates between exactly two regions
        across iterations, so the stream repeats with period two."""
        a = ctx.random((8, 8), seed=0)
        b = ctx.random((8,), seed=1)
        x = ctx.zeros((8,))
        d = a.diag()
        r = a - d.diag()
        x_regions = []
        for i in range(8):
            x = (b - r.dot(x)) / d
            x_regions.append(x.region.uid)
        # Steady state: two region uids alternating.
        steady = x_regions[2:]
        assert len(set(steady)) == 2
        assert steady[0] == steady[2] == steady[4]
        assert steady[1] == steady[3] == steady[5]
        assert steady[0] != steady[1]

    def test_figure1_task_names(self, recorder, ctx):
        a = ctx.random((8, 8), seed=0)
        b = ctx.random((8,), seed=1)
        x = ctx.zeros((8,))
        d = a.diag()
        r = a - d.diag()
        start = len(recorder.tasks)
        for i in range(2):
            x = (b - r.dot(x)) / d
        names = [t.name for t in recorder.tasks[start:]]
        assert names == ["DOT", "SUB", "DIV", "DOT", "SUB", "DIV"]

    def test_inplace_op_keeps_region(self, recorder, ctx):
        q = ctx.zeros((4,))
        region = q.region
        delta = ctx.zeros((4,))
        ctx.inplace_op("AXPY", q, delta)
        assert q.region is region
        axpy = recorder.tasks[-1]
        assert axpy.requirements[-1].privilege.value == "read_write"

    def test_exec_cost_model(self, recorder):
        ctx = ArrayContext(recorder, RegionForest(), flop_rate=1e6)
        a = ctx.zeros((1000,))
        b = ctx.zeros((1000,))
        _ = a + b
        assert recorder.tasks[-1].exec_cost == pytest.approx(1e-3)

    def test_custom_task_time(self, recorder):
        ctx = ArrayContext(
            recorder, RegionForest(), task_time=lambda name, shape: 42.0
        )
        _ = ctx.zeros((4,))
        assert recorder.tasks[-1].exec_cost == 42.0


class TestNumerics:
    """With numeric=True the layer computes real results via numpy."""

    @pytest.fixture
    def nctx(self, recorder):
        return ArrayContext(recorder, RegionForest(), numeric=True)

    def test_arithmetic(self, nctx):
        a = nctx.full((4,), 6.0)
        b = nctx.full((4,), 2.0)
        assert np.allclose((a + b).to_numpy(), 8.0)
        assert np.allclose((a - b).to_numpy(), 4.0)
        assert np.allclose((a * b).to_numpy(), 12.0)
        assert np.allclose((a / b).to_numpy(), 3.0)

    def test_dot_and_diag(self, nctx):
        m = nctx.from_numpy(np.eye(3) * 2.0)
        v = nctx.from_numpy(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(m.dot(v).to_numpy(), [2.0, 4.0, 6.0])
        assert np.allclose(m.diag().to_numpy(), [2.0, 2.0, 2.0])

    def test_reductions(self, nctx):
        v = nctx.from_numpy(np.array([3.0, 4.0]))
        assert np.allclose(v.sum().to_numpy(), [7.0])
        assert np.allclose(v.norm().to_numpy(), [5.0])

    def test_jacobi_converges(self, nctx):
        """The Figure 1a program really solves the system when executed
        numerically: validated against numpy's solve."""
        rng = np.random.default_rng(7)
        n = 16
        a_np = rng.random((n, n)) + np.eye(n) * n  # diagonally dominant
        b_np = rng.random(n)
        a = nctx.from_numpy(a_np)
        b = nctx.from_numpy(b_np)
        x = nctx.zeros((n,))
        d = a.diag()
        r = a - d.diag()
        for _ in range(100):
            x = (b - r.dot(x)) / d
        assert np.allclose(x.to_numpy(), np.linalg.solve(a_np, b_np), atol=1e-8)

    def test_to_numpy_requires_numeric(self, ctx):
        with pytest.raises(RuntimeError):
            ctx.zeros((4,)).to_numpy()


class TestRuntimeIntegration:
    def test_arrays_drive_real_runtime(self):
        rt = Runtime(analysis_mode="full")
        ctx = ArrayContext(rt, rt.forest)
        a = ctx.zeros((8,))
        b = ctx.zeros((8,))
        c = a + b
        d = c * a
        # RAW chain: MUL depends on ADD's output region.
        mul_uid = rt.task_log[-1].uid
        add_uid = rt.task_log[-2].uid
        assert add_uid in rt.dependences[mul_uid].depends_on
