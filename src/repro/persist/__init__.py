"""Session persistence: dehydrate / hydrate learned tracing state.

Public surface:

* :class:`SessionState` -- one session's learned state as a versioned,
  canonically-serialized JSON document; its text carries a digest stamp
  (``dumps`` writes it, ``loads`` checks it), a state built in process
  none;
* :func:`dehydrate` / :func:`hydrate_processor` -- snapshot a live
  session / restore one onto a fresh processor (the facade spells these
  ``Session.dehydrate()`` and ``open_session(..., state=...)``;
  :func:`dehydrate_processor` snapshots a processor no backend serves);
* :class:`SessionStateStore` -- the token-budgeted LRU spill tier the
  service parks evicted tenants' states in (a front over
  :class:`repro.lru.LRU`, the one size-aware LRU of the package).
"""

from repro.persist.state import (
    FORMAT_NAME,
    PersistFormatError,
    PersistFormatV1,
    SessionState,
    dehydrate,
    dehydrate_processor,
    hydrate_processor,
)
from repro.persist.store import SessionStateStore

__all__ = [
    "FORMAT_NAME",
    "PersistFormatError",
    "PersistFormatV1",
    "SessionState",
    "SessionStateStore",
    "dehydrate",
    "dehydrate_processor",
    "hydrate_processor",
]
