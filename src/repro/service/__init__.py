"""Multi-tenant Apophenia: many token streams, one mining backend.

The paper's system serves one application; the service layer serves many
concurrent application *sessions* from one process without duplicating
executors or memos:

* :mod:`repro.service.service` -- the session core every tracing backend
  is built on (:class:`SessionPool`, :class:`SessionHandle`), the
  per-application :class:`StandaloneBackend`, and
  :class:`ApopheniaService`: session admission, LRU eviction, and
  per-task routing over the shared executor;
* :mod:`repro.service.executor` -- the shared mining backend: one
  algorithm, one cross-session window memo and one FIFO, fronted by
  per-session lanes that are plain :class:`~repro.core.jobs.JobExecutor`
  subclasses;
* :mod:`repro.service.replicated` -- :class:`ReplicatedBackend`: each
  session served by N control-replicated node processors sharing one
  per-session ingestion coordinator (Section 5.1), on the same pool.

The whole layer is decision-neutral by construction: every session's
tbegin/tend stream is byte-identical to running its application alone
(see :mod:`repro.service.executor` for the argument, and
``tests/test_service.py`` for the property tests).
"""

from repro.service.executor import SessionLane, SharedJobExecutor
from repro.service.replicated import ReplicatedBackend
from repro.service.service import (
    ApopheniaService,
    SessionHandle,
    SessionPool,
    StandaloneBackend,
)

__all__ = [
    "ApopheniaService",
    "ReplicatedBackend",
    "SessionHandle",
    "SessionLane",
    "SessionPool",
    "SharedJobExecutor",
    "StandaloneBackend",
]
