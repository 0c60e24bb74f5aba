"""Public-API snapshot: the names exported by ``repro`` and ``repro.api``,
and the knobs of ``ApopheniaConfig``.

The client API is the repo's compatibility contract (ISSUE 3): backends,
profiles, and internals may churn freely, but these two ``__all__``
surfaces only change deliberately. If a PR legitimately adds or removes
a public name, update the snapshot here *in the same PR* and say so in
CHANGES.md -- the diff of this file is the API review. The same holds
for a config field: every knob is one some deployment sets, and a new
decision knob changes what a trace header and a session state record.

Wired into ``make verify`` via the ``api`` marker step in
``scripts/verify.sh``.
"""

import pytest

import repro
import repro.api
from repro.core.processor import ApopheniaConfig

pytestmark = pytest.mark.api

REPRO_ALL = [
    "ApopheniaConfig",
    "ApopheniaProcessor",
    "ApopheniaService",
    "EOS",
    "MachineConfig",
    "PERLMUTTER",
    "Runtime",
    "SessionStats",
    "__version__",
    "build_config",
    "find_repeats",
    "open_session",
]

REPRO_API_ALL = [
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

#: ``ApopheniaConfig.field_names()``, in declaration order.
CONFIG_FIELDS = [
    "min_trace_length",
    "max_trace_length",
    "batchsize",
    "multi_scale_factor",
    "hysteresis",
    "job_base_latency_ops",
    "initial_ingest_margin_ops",
    "num_nodes",
    "max_sessions",
    "shared_memo_capacity",
    "shared_memo_token_budget",
    "fault_plan",
    "fault_quarantine_threshold",
    "session_state_budget",
]

#: ``ApopheniaConfig.decision_fields()``: what a session state records
#: and hydrate checks.
DECISION_FIELDS = [
    "min_trace_length",
    "max_trace_length",
    "batchsize",
    "multi_scale_factor",
    "hysteresis",
    "job_base_latency_ops",
    "initial_ingest_margin_ops",
]


def test_repro_public_surface_is_frozen():
    assert sorted(repro.__all__) == REPRO_ALL


def test_repro_api_public_surface_is_frozen():
    assert sorted(repro.api.__all__) == REPRO_API_ALL


@pytest.mark.parametrize("module,names", [
    (repro, REPRO_ALL),
    (repro.api, REPRO_API_ALL),
])
def test_every_exported_name_resolves(module, names):
    for name in names:
        assert getattr(module, name, None) is not None, name


def test_config_surface_is_frozen():
    assert list(ApopheniaConfig.field_names()) == CONFIG_FIELDS
    assert list(ApopheniaConfig.decision_fields()) == DECISION_FIELDS
