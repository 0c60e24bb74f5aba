"""Deferred NDArray and the ArrayContext that issues its tasks.

Every :class:`NDArray` is backed by a logical region from the context's
:class:`~repro.arrays.allocator.RegionPool`. Operations allocate an output
region, launch a task whose requirements mirror cuPyNumeric's (inputs
``READ_ONLY``, output ``WRITE_DISCARD``), and wrap the output region in a
new array. When an array object is garbage collected (CPython refcounting
makes this deterministic at rebinding sites, exactly like cuPyNumeric's
eager collection), its region returns to the pool for immediate reuse.

The context optionally computes results with ``numpy`` so examples can
verify real numerics; the task stream is identical either way.
"""

import math

from repro.runtime.privilege import Privilege
from repro.runtime.task import RegionRequirement, Task

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is available in CI
    _np = None


class ArrayContext:
    """Factory and task issuer for deferred arrays.

    Parameters
    ----------
    executor:
        Object with ``execute_task(task)`` -- either a
        :class:`~repro.runtime.runtime.Runtime` (untraced / manually
        traced execution) or an
        :class:`~repro.core.processor.ApopheniaProcessor`.
    forest:
        The region forest backing allocations (usually
        ``runtime.forest``).
    numeric:
        When True, operations also execute with numpy.
    task_time:
        Callable ``(name, out_shape) -> seconds`` giving each task's
        virtual execution cost; defaults to a throughput model of
        ``flop_rate`` elements/second.
    flop_rate:
        Elements/second for the default cost model.
    comm_time:
        Callable ``(name, out_shape) -> seconds`` of communication cost
        attached to the task, or None.
    """

    def __init__(
        self,
        executor,
        forest,
        numeric=False,
        task_time=None,
        flop_rate=5e9,
        comm_time=None,
    ):
        if numeric and _np is None:
            raise RuntimeError("numpy is required for numeric execution")
        self.executor = executor
        self.forest = forest
        from repro.arrays.allocator import RegionPool

        self.pool = RegionPool(forest)
        self.numeric = numeric
        self.flop_rate = flop_rate
        self.task_time = task_time or self._default_task_time
        self.comm_time = comm_time

    def _default_task_time(self, name, shape):
        elements = 1
        for dim in shape:
            elements *= dim
        # Matrix-vector products touch every matrix element.
        if name == "DOT":
            elements = elements * max(shape) if shape else elements
        return elements / self.flop_rate

    # ------------------------------------------------------------------
    # Array creation
    # ------------------------------------------------------------------
    def array(self, shape, name=None, data=None, issue_task=True, task_name="FILL"):
        """Create a fresh array, optionally issuing its init task."""
        region = self.pool.allocate(shape, name=name)
        arr = NDArray(self, region, tuple(shape), data=data)
        if issue_task:
            self._issue(task_name, [], arr)
        return arr

    def zeros(self, shape, name=None):
        data = _np.zeros(shape) if self.numeric else None
        return self.array(shape, name=name, data=data, task_name="ZEROS")

    def full(self, shape, value, name=None):
        data = _np.full(shape, float(value)) if self.numeric else None
        return self.array(shape, name=name, data=data, task_name="FILL")

    def random(self, shape, seed=None, name=None):
        data = None
        if self.numeric:
            rng = _np.random.default_rng(seed)
            data = rng.random(shape)
        return self.array(shape, name=name, data=data, task_name="RAND")

    def from_numpy(self, data, name=None):
        arr = self.array(data.shape, name=name, data=None, issue_task=False)
        if self.numeric:
            arr._data = _np.array(data, dtype=float)
        self._issue("ATTACH", [], arr)
        return arr

    # ------------------------------------------------------------------
    # Task issuing
    # ------------------------------------------------------------------
    def _issue(self, name, inputs, output, compute=None):
        reqs = [
            RegionRequirement(arr.region, Privilege.READ_ONLY) for arr in inputs
        ]
        reqs.append(RegionRequirement(output.region, Privilege.WRITE_DISCARD))
        exec_cost = self.task_time(name, output.shape)
        comm_cost = self.comm_time(name, output.shape) if self.comm_time else 0.0
        task = Task(name, reqs, exec_cost=exec_cost, comm_cost=comm_cost)
        self.executor.execute_task(task)
        if self.numeric and compute is not None:
            output._data = compute(*[arr._data for arr in inputs])
        return output

    def binary_op(self, name, a, b, out_shape=None, compute=None):
        """Launch a binary task producing a fresh output array."""
        shape = out_shape or a.shape
        out = NDArray(self, self.pool.allocate(shape), tuple(shape))
        return self._issue(name, [a, b], out, compute=compute)

    def unary_op(self, name, a, out_shape=None, compute=None):
        shape = out_shape or a.shape
        out = NDArray(self, self.pool.allocate(shape), tuple(shape))
        return self._issue(name, [a], out, compute=compute)

    def inplace_op(self, name, target, *inputs, compute=None):
        """Launch a task updating ``target`` in place (READ_WRITE).

        In-place updates keep the target bound to its region, which is how
        real cuPyNumeric programs (e.g. TorchSWE's conserved-field updates
        via ``out=`` arrays) keep the task stream's period short.
        """
        reqs = [
            RegionRequirement(arr.region, Privilege.READ_ONLY) for arr in inputs
        ]
        reqs.append(RegionRequirement(target.region, Privilege.READ_WRITE))
        exec_cost = self.task_time(name, target.shape)
        comm_cost = self.comm_time(name, target.shape) if self.comm_time else 0.0
        self.executor.execute_task(
            Task(name, reqs, exec_cost=exec_cost, comm_cost=comm_cost)
        )
        if self.numeric and compute is not None:
            target._data = compute(
                target._data, *[arr._data for arr in inputs]
            )
        return target

    def reduction(self, name, a, compute=None):
        """Launch a reduction to a scalar-shaped array (e.g. a norm)."""
        out = NDArray(self, self.pool.allocate((1,)), (1,))
        wrapped = (lambda x: _np.asarray([compute(x)])) if compute else None
        return self._issue(name, [a], out, compute=wrapped)


class NDArray:
    """A deferred array backed by a logical region."""

    __slots__ = ("ctx", "region", "shape", "_data", "__weakref__")

    def __init__(self, ctx, region, shape, data=None):
        self.ctx = ctx
        self.region = region
        self.shape = tuple(shape)
        self._data = data

    # When the Python object dies, the region is immediately reusable --
    # cuPyNumeric's eager collection (Section 2 of the paper).
    def __del__(self):
        pool = getattr(self.ctx, "pool", None)
        if pool is not None:
            try:
                pool.release(self.region)
            except Exception:  # pragma: no cover - interpreter shutdown
                pass

    # ------------------------------------------------------------------
    # Operations (each issues exactly one task)
    # ------------------------------------------------------------------
    def dot(self, other):
        if len(self.shape) == 2:
            out_shape = (self.shape[0],)
        else:
            out_shape = (1,)
        return self.ctx.binary_op(
            "DOT",
            self,
            other,
            out_shape=out_shape,
            compute=(lambda a, b: a @ b) if self.ctx.numeric else None,
        )

    def __add__(self, other):
        return self._binary("ADD", other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary("SUB", other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary("MUL", other, lambda a, b: a * b)

    def __truediv__(self, other):
        return self._binary("DIV", other, lambda a, b: a / b)

    def _binary(self, name, other, fn):
        if not isinstance(other, NDArray):
            raise TypeError(
                f"{name} requires an NDArray operand, got {type(other)!r}; "
                "materialize scalars with ctx.full()"
            )
        return self.ctx.binary_op(
            name, self, other, compute=fn if self.ctx.numeric else None
        )

    def copy(self):
        return self.ctx.unary_op(
            "COPY", self, compute=(lambda a: a.copy()) if self.ctx.numeric else None
        )

    def diag(self):
        """Extract the diagonal (2D) or build a diagonal matrix (1D)."""
        if len(self.shape) == 2:
            out_shape = (min(self.shape),)
        else:
            out_shape = (self.shape[0], self.shape[0])
        return self.ctx.unary_op(
            "DIAG",
            self,
            out_shape=out_shape,
            compute=(lambda a: _np.diag(a)) if self.ctx.numeric else None,
        )

    def sum(self):
        return self.ctx.reduction(
            "SUM", self, compute=(lambda a: float(a.sum())) if self.ctx.numeric else None
        )

    def norm(self):
        return self.ctx.reduction(
            "NORM",
            self,
            compute=(lambda a: float(math.sqrt((a * a).sum())))
            if self.ctx.numeric
            else None,
        )

    def to_numpy(self):
        if self._data is None:
            raise RuntimeError("array has no numeric data (numeric=False)")
        return self._data

    def __repr__(self):
        return f"NDArray(shape={self.shape}, region={self.region.name})"
