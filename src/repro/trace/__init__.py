"""repro.trace: capture, export, and deterministic re-drive of sessions.

Three pieces (see ISSUE 8 / the ROADMAP's scenario-diversity item):

* :class:`TraceRecorder` -- hooks a :class:`repro.api.Session` and
  serializes its task stream to the versioned JSON-lines format of
  :mod:`repro.trace.format`;
* :class:`TraceReplayHarness` -- rebuilds the shadow region forest and
  re-issues a captured trace against any backend, asserting the
  decision stream is byte-identical to the capture digest;
* :mod:`repro.trace.corpus` -- the checked-in fixture builders behind
  ``make corpus`` (imported on demand: it pulls in the application
  layer).

Command line: ``python -m repro.trace {capture,replay,show,corpus}``.
"""

from repro.trace.format import (
    TraceDocument,
    TraceFormatError,
    TraceFormatV1,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import (
    REPLAY_BACKENDS,
    ReplayVerdict,
    TraceReplayHarness,
    rebuild_forest,
    replay_on_all,
)

__all__ = [
    "REPLAY_BACKENDS",
    "ReplayVerdict",
    "TraceDocument",
    "TraceFormatError",
    "TraceFormatV1",
    "TraceRecorder",
    "TraceReplayHarness",
    "rebuild_forest",
    "replay_on_all",
]
