"""repro: a reproduction of "Automatic Tracing in Task-Based Runtime Systems".

This package reimplements, in pure Python, the Apophenia automatic tracing
system (ASPLOS 2025) together with every substrate it depends on:

* :mod:`repro.runtime` -- a Legion-like task-based runtime with logical
  regions, a dynamic dependence analysis, a trace memoization engine, and a
  virtual-time pipeline cost model calibrated to the paper's measurements.
* :mod:`repro.core` -- Apophenia itself: task hashing, the suffix-array based
  non-overlapping repeated substring algorithm (Algorithm 2), the candidate
  trie and trace replayer, multi-scale buffer sampling, and the distributed
  ingestion agreement protocol.
* :mod:`repro.arrays` -- a miniature cuPyNumeric: a deferred NumPy-like array
  library that translates array operations into runtime tasks and reuses
  freed regions, reproducing the motivating example of the paper's Figure 1.
* :mod:`repro.apps` -- task-stream models of the paper's five applications
  (S3D, HTR, CFD, TorchSWE, FlexFlow) plus smaller teaching workloads.
* :mod:`repro.analysis` -- baseline trace identification algorithms (LZW,
  tandem repeats, quadratic suffix matching) used for ablation studies.
* :mod:`repro.experiments` -- the harness that regenerates every figure and
  table in the paper's evaluation section.
* :mod:`repro.service` -- the multi-tenant service layer: many concurrent
  application sessions multiplexed over one shared mining backend with a
  cross-session window memo and LRU session eviction.
* :mod:`repro.api` -- the deployment-agnostic client API: one session
  lifecycle (``open_session`` / ``submit`` / ``flush`` / ``stats`` /
  ``snapshot`` / ``close``) over interchangeable tracing backends, a
  validating config builder with named profiles and centralized
  ``REPRO_*`` environment layering, and the unified plugin registries.

Most client code needs only :func:`repro.api.open_session` (re-exported
here as :func:`repro.open_session`) and :func:`repro.build_config`; the
classes below remain public for code wiring deployments together.
"""

from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.core.repeats import find_repeats
from repro.runtime.runtime import Runtime
from repro.runtime.machine import EOS, PERLMUTTER, MachineConfig
from repro.service import ApopheniaService
from repro.api import SessionStats, build_config, open_session

__version__ = "1.2.0"

__all__ = [
    "ApopheniaConfig",
    "ApopheniaProcessor",
    "ApopheniaService",
    "Runtime",
    "MachineConfig",
    "PERLMUTTER",
    "EOS",
    "SessionStats",
    "build_config",
    "find_repeats",
    "open_session",
    "__version__",
]
