"""TorchSWE: cuPyNumeric shallow-water equation solver (Fig. 7b).

TorchSWE is the largest cuPyNumeric application: it maintains a large
number of per-point fields (conserved quantities, slopes, fluxes per
direction) and issues separate array operations on each field per
iteration, producing very long traces (>2000 tasks, Section 4.2) that also
do not align with the source loop because of temporary reuse.

Key evaluation point reproduced here (Section 6.1): because every element
carries so many fields, growing the problem grows memory faster than task
granularity, so *no* problem size hides untraced runtime overhead -- even
"-l" exposes it at 8 GPUs. Tracing is a requirement, not an optimization.
Weak scaling on Eos; no manually traced version exists (an order of
magnitude more code than CFD).
"""

from repro.apps.base import Application, register_app
from repro.arrays.array import ArrayContext


@register_app
class TorchSWE(Application):
    name = "torchswe"
    # Many fields per element: per-task granularity stays small even for
    # the large size (the paper's central observation for this app).
    sizes = {"s": 1.1e-3, "m": 1.8e-3, "l": 2.4e-3}
    supports_manual = False

    NUM_FIELDS = 12
    RK_STAGES = 2

    def setup(self):
        self.ctx = ArrayContext(
            self.executor,
            self.runtime.forest,
            numeric=False,
            task_time=lambda name, shape: self.task_time,
            comm_time=lambda name, shape: (
                self.comm_time(1 << 16) if name == "FLUX" else 0.0
            ),
        )
        n = 256
        self.shape = (n, n)
        # Conserved quantities: water depth and momenta, plus topography.
        self.state = [
            self.ctx.zeros(self.shape, name=f"swe_q{i}")
            for i in range(self.NUM_FIELDS)
        ]
        self.topo = self.ctx.zeros(self.shape, name="swe_topo")

    def _stage(self):
        """One Runge-Kutta stage: slope-limit, flux, and in-place update
        per field. Temporaries are released promptly (``del``) and the
        conserved fields update in place (TorchSWE uses ``out=`` arrays),
        keeping the allocator's steady-state period short -- the resulting
        stream repeats every 2 iterations (~390 tasks), so Apophenia's
        5000-token buffer discovers multi-iteration traces of >2000 tasks,
        matching Section 4.2's description of this application."""
        for qi in range(len(self.state)):
            q = self.state[qi]
            sx = self.ctx.unary_op("SLOPEX", q)
            sy = self.ctx.unary_op("SLOPEY", q)
            fx = self.ctx.binary_op("FLUX", q, sx)
            del sx
            fy = self.ctx.binary_op("FLUX", q, sy)
            del sy
            div = fx + fy
            del fx, fy
            src = self.ctx.binary_op("SOURCE", q, self.topo)
            corr = div - src
            del div, src
            self.ctx.inplace_op("AXPY", q, corr)
            del corr

    def iteration(self, index):
        for _ in range(self.RK_STAGES):
            self._stage()
        # Adaptive time step: a reduction over the wave speeds.
        speed = self.ctx.binary_op("WAVESPEED", self.state[0], self.state[1])
        # Nothing reads the step, but the store holds its region until the
        # next iteration replaces it: dropping it hands the region back to
        # the pool a step earlier, which changes the regions later
        # allocations reuse and so the task signatures.
        self._dt = speed.sum()
