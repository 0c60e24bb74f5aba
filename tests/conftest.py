"""Fixtures shared by more than one test module."""

import pytest

import repro.service.replicated
import repro.service.service
from repro.runtime.session import session_runtime


@pytest.fixture
def session_engines(monkeypatch):
    """The tracing engine of every runtime a session pool builds during
    the test; on teardown each must have met no trace mismatch.

    A replayed trace whose template does not hold the task the stream
    issues (a replayer bug, or two signatures sharing a token) is
    counted by the ``fallback`` runtime instead of failing the session,
    so nothing else would see it. Every pool builds its runtimes through
    ``session_runtime``, looked up in the two modules that call it. The
    engines are kept, not the runtimes, so a closed session stays
    collectable.
    """
    engines = []

    def collecting():
        runtime = session_runtime()
        engines.append(runtime.engine)
        return runtime

    for module in (repro.service.service, repro.service.replicated):
        monkeypatch.setattr(module, "session_runtime", collecting)
    yield engines
    assert [engine.mismatches for engine in engines] == [0] * len(engines)
