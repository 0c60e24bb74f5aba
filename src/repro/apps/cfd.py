"""CFD: cuPyNumeric Navier-Stokes 2D channel flow (Section 6.1, Fig. 7a).

This is the "CFD Python: 12 steps to Navier-Stokes" channel-flow solver
[5], written against the mini-cuPyNumeric array layer. Two properties make
it the paper's showcase for why manual tracing is impractical:

* every iteration creates temporaries and rebinds Python variables, so
  regions cycle through the allocator pool and the repeating unit of the
  *task stream* does not align with the source loop (Section 2);
* a convergence check runs every ``CHECK_PERIOD`` iterations, inserting an
  irregular fragment that breaks tandem repetition.

There is no manually traced version -- the paper compares Apophenia
against untraced execution only. Weak scaling on Eos at sizes s/m/l.
"""

from repro.apps.base import Application, register_app
from repro.arrays.array import ArrayContext
from repro.runtime.machine import EOS


@register_app
class CFD(Application):
    name = "cfd"
    sizes = {"s": 1.0e-3, "m": 2.6e-3, "l": 7.0e-3}
    supports_manual = False

    CHECK_PERIOD = 50
    # Pressure-Poisson pseudo-time iterations per step; they dominate the
    # ~80 tasks/iteration stream.
    POISSON_ITERS = 10

    def setup(self):
        self.ctx = ArrayContext(
            self.executor,
            self.runtime.forest,
            numeric=False,
            task_time=lambda name, shape: self.task_time,
            comm_time=lambda name, shape: (
                self.comm_time(1 << 17) if name in ("DOT", "LAPLACE") else 0.0
            ),
        )
        n = 128  # nominal grid edge; numerics are virtual here
        self.shape = (n, n)
        self.u = self.ctx.zeros(self.shape, name="u")
        self.v = self.ctx.zeros(self.shape, name="v")
        self.p = self.ctx.zeros(self.shape, name="p")
        self.dt = self.ctx.full(self.shape, 1e-3, name="dt")
        self.residual = None

    # ------------------------------------------------------------------
    def _build_rhs(self):
        """Poisson right-hand side from the velocity divergence."""
        ux = self.ctx.binary_op("GRADX", self.u, self.dt)
        vy = self.ctx.binary_op("GRADY", self.v, self.dt)
        return ux + vy  # two temporaries die here, regions recycle

    def _poisson_step(self, p, b):
        lap = self.ctx.unary_op("LAPLACE", p)
        corr = lap - b
        return p + corr

    def _velocity_update(self, p):
        gpx = self.ctx.unary_op("GRADX1", p)
        gpy = self.ctx.unary_op("GRADY1", p)
        adv_u = self.ctx.binary_op("ADVECT", self.u, self.v)
        adv_v = self.ctx.binary_op("ADVECT", self.v, self.u)
        diff_u = self.ctx.unary_op("DIFFUSE", self.u)
        diff_v = self.ctx.unary_op("DIFFUSE", self.v)
        self.u = (self.u - adv_u) + (diff_u - gpx)
        self.v = (self.v - adv_v) + (diff_v - gpy)

    def _convergence_check(self):
        du = self.ctx.unary_op("DELTA", self.u)
        # Nothing reads the residual, but the store holds its region until
        # the next check replaces it: dropping it hands the region back to
        # the pool an iteration earlier, which changes the regions later
        # allocations reuse and so the task signatures.
        self.residual = du.norm()

    def iteration(self, index):
        b = self._build_rhs()
        p = self.p
        for _ in range(self.POISSON_ITERS):
            p = self._poisson_step(p, b)
        self.p = p
        self._velocity_update(p)
        if index % self.CHECK_PERIOD == 0:
            self._convergence_check()


def default_machine():
    """The paper runs CFD on Eos."""
    return EOS
