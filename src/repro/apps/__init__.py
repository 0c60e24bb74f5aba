"""Task-stream models of the paper's evaluation applications.

Apophenia only ever observes the stream of tasks an application issues, so
each application here reproduces the *stream structure* of its namesake --
task counts per iteration, periodic irregularities (hand-offs, convergence
checks), region allocation dynamics, and calibrated execution/communication
costs -- rather than its numerics:

* :mod:`repro.apps.s3d` -- S3D combustion chemistry: Runge-Kutta RHS tasks
  plus Legion<->Fortran/MPI hand-offs every iteration for the first 10
  iterations and every 10th thereafter (Section 6.1).
* :mod:`repro.apps.htr` -- HTR hypersonic aerothermodynamics solver.
* :mod:`repro.apps.cfd` -- cuPyNumeric Navier-Stokes 2D channel flow with
  allocator-driven region reuse and periodic convergence checks.
* :mod:`repro.apps.torchswe` -- cuPyNumeric port of the TorchSWE
  shallow-water solver: many fields, very long traces (>2000 tasks).
* :mod:`repro.apps.flexflow` -- FlexFlow DNN training of the CANDLE pilot1
  network with data parallelism (strong scaling, Section 6.2).
* :mod:`repro.apps.stencil` -- a simple halo-exchange stencil used in
  examples and tests.
* :mod:`repro.apps.jacobi` -- the paper's Figure 1 Jacobi-iteration
  motivating example, written against :mod:`repro.arrays`.
* :mod:`repro.apps.generative` -- the phase-graph workload generator:
  declarative :class:`PhaseGraph` specs (task mixes, weighted
  transitions, burst/drift knobs, nested sub-periods) drive seeded,
  fully deterministic non-periodic streams for the trace corpus and the
  chaos/perf suites.
"""

from repro.apps.base import (
    Application,
    AppConfig,
    APP_REGISTRY,
    build_app,
    capture_stream,
    get_app,
)
from repro.apps.s3d import S3D
from repro.apps.htr import HTR
from repro.apps.cfd import CFD
from repro.apps.torchswe import TorchSWE
from repro.apps.flexflow import FlexFlow
from repro.apps.stencil import Stencil
from repro.apps.generative import PHASE_GRAPHS, Generative, PhaseGraph
from repro.apps.jacobi import jacobi_task_stream

__all__ = [
    "Application",
    "AppConfig",
    "build_app",
    "capture_stream",
    "get_app",
    "APP_REGISTRY",
    "S3D",
    "HTR",
    "CFD",
    "TorchSWE",
    "FlexFlow",
    "Stencil",
    "Generative",
    "PhaseGraph",
    "PHASE_GRAPHS",
    "jacobi_task_stream",
]
