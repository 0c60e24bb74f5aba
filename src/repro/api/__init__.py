"""repro.api: the deployment-agnostic client API.

The paper's Apophenia has exactly one entry point (``ExecuteTask``); as
this repo grew a standalone processor, a multi-tenant service, and
coordinator plumbing for replicated nodes, each sprouted its own
construction idiom. This package is the one stable surface in front of
all of them:

* :func:`open_session` / :class:`Session` -- the session lifecycle
  (``submit`` / ``set_iteration`` / ``flush`` / ``stats`` /
  ``snapshot`` / ``close``, context-manager friendly), identical
  whichever backend serves it;
* :class:`TracingBackend` -- the protocol that makes backends
  interchangeable, with :data:`TRACING_BACKENDS` as the plugin registry
  (``"standalone"``, ``"service"``, ``"replicated"``);
* :func:`build_config` -- the validating configuration builder: named
  :data:`PROFILES`, keyword overrides, and centralized ``REPRO_*``
  environment layering;
* :class:`SessionStats` -- one structured statistics snapshot replacing
  internals-poking, plus :class:`SessionSnapshot` for decision-stream
  parity checks;
* :func:`registries` -- every plugin point in the system, for
  introspection and tooling.

Decision streams produced through this facade are byte-identical to
driving an :class:`~repro.core.processor.ApopheniaProcessor` directly --
property-tested per application and per backend in ``tests/test_api.py``.
"""

from repro.api.config import (
    DEFAULT_PROFILE,
    ENV_PREFIX,
    PROFILES,
    PROFILE_ENV_VAR,
    build_config,
    env_overrides,
    profile_names,
    validate_config,
)
from repro.api.session import (
    Session,
    SessionSnapshot,
    StandaloneBackend,
    TRACING_BACKENDS,
    TracingBackend,
    open_session,
)
from repro.core.processor import ApopheniaConfig
from repro.errors import SessionClosedError
from repro.faults import FaultPlan, NullFaultPlan
from repro.metrics import SessionStats
from repro.service.replicated import ReplicatedBackend
from repro.service.service import ApopheniaService, collect_session_stats


def registries():
    """Every plugin registry in the system, by name.

    One introspection point over the unified registry pattern: tracing
    backends, configuration profiles, applications and phase graphs.
    Imported lazily so ``repro.api`` itself stays light.
    """
    from repro.apps.base import APP_REGISTRY
    from repro.apps.generative import PHASE_GRAPHS

    return {
        "tracing_backends": TRACING_BACKENDS,
        "config_profiles": PROFILES,
        "apps": APP_REGISTRY,
        "phase_graphs": PHASE_GRAPHS,
    }


#: Trace capture/re-drive and persistence entry points, resolved lazily
#: (PEP 562): ``repro.trace`` imports this package for the session
#: facade, so an eager import here would be circular, and the
#: persistence names ride the same mechanism so ``repro.api`` stays
#: light for sessions that never dehydrate.
_TRACE_EXPORTS = {
    "TraceRecorder": "repro.trace.recorder",
    "TraceReplayHarness": "repro.trace.replay",
    "SessionState": "repro.persist",
    "SessionStateStore": "repro.persist",
    "PersistFormatError": "repro.persist",
}


def __getattr__(name):
    target = _TRACE_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(target), name)


__all__ = [
    "ApopheniaConfig",
    "ApopheniaService",
    "DEFAULT_PROFILE",
    "ENV_PREFIX",
    "FaultPlan",
    "NullFaultPlan",
    "PROFILES",
    "PROFILE_ENV_VAR",
    "PersistFormatError",
    "ReplicatedBackend",
    "Session",
    "SessionClosedError",
    "SessionSnapshot",
    "SessionState",
    "SessionStateStore",
    "SessionStats",
    "StandaloneBackend",
    "TRACING_BACKENDS",
    "TraceRecorder",
    "TraceReplayHarness",
    "TracingBackend",
    "build_config",
    "collect_session_stats",
    "env_overrides",
    "open_session",
    "profile_names",
    "registries",
    "validate_config",
]
