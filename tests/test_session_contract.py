"""One lifecycle contract, three inputs.

Every tracing backend is the same ``SessionPool`` underneath, so the
open/close lifecycle, the exception-safe teardown and the meaning of each
``backend_stats`` key are asserted once, over all three
``TRACING_BACKENDS`` -- not re-stated per backend.
"""

import pytest

from repro.api import TRACING_BACKENDS, SessionClosedError
from repro.core.processor import ApopheniaConfig
from repro.persist import dehydrate
from repro.runtime.session import RuntimeSessionFactory
from repro.runtime.task import Task

pytestmark = [pytest.mark.api, pytest.mark.service, pytest.mark.replication]

CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
    num_nodes=3,
)

#: Keys that describe what is held right now; everything else is
#: lifetime. With no session open they all read 0 -- except the
#: service's shared memo, which deliberately outlives its tenants.
GAUGES = ("memo_tokens_held", "quarantined", "states_held",
          "ingest_margin_ops", "agreement_entries", "nodes", "live_nodes")
#: Session-level counters a close must not forget (the service used to
#: sum these over *open* sessions only).
LIFETIME = ("tasks_seen", "jobs_materialized", "memo_hits",
            "pointer_collapses", "active_pointer_peak", "coordinator_waits")


@pytest.fixture(params=sorted(TRACING_BACKENDS))
def pool(request):
    factory = RuntimeSessionFactory()
    backend = TRACING_BACKENDS[request.param](CONFIG, runtime_factory=factory)
    assert backend.backend_kind == request.param
    return backend


def _serve(handle, tasks=300):
    """A period-3 stream: long enough to mine, trace, and (replicated)
    leave live agreements behind."""
    for i in range(tasks):
        handle.execute_task(Task(f"T{i % 3}"))


def _registrations(pool, handle):
    """Everything a session registers outside its handle."""
    sid = handle.session_id
    found = [key for key in pool.runtime_factory.handles if sid in key]
    if sid in pool.sessions:
        found.append("session table")
    if pool.backend_kind == "service" and sid in pool.executor.lanes:
        found.append("lane")
    coordinator = handle.coordinator
    if coordinator is not None:
        found += [key for key in coordinator._agreed if key[0] == sid]
        if sid in coordinator._registered:
            found.append("coordinator stream")
    return found


def test_duplicate_open_and_unknown_close(pool):
    pool.open_session("a")
    with pytest.raises(ValueError, match="already open"):
        pool.open_session("a")
    with pytest.raises(SessionClosedError) as excinfo:
        pool.close_session("never-opened")
    assert excinfo.value.session_id == "never-opened"
    pool.close_session("a")
    with pytest.raises(KeyError, match="unknown or already-closed"):
        pool.close_session("a")  # double close: the same clear error


def test_close_is_exception_safe(pool, monkeypatch):
    """Regression (found once per backend, PR 5 onwards): a flush that
    raises during close must still free the table entry, every factory
    runtime, and the lane / coordinator registration, mark the handle
    closed, keep the lifetime counters, and leave the id reusable."""
    handle = pool.open_session("crashy")
    _serve(handle)
    assert _registrations(pool, handle)  # not vacuous
    served = pool.backend_stats["tasks_seen"]

    def boom():
        raise RuntimeError("flush failed")

    # The last replica: the ones before it flush fine, then this raises.
    monkeypatch.setattr(handle.processors[-1], "flush", boom)
    with pytest.raises(RuntimeError, match="flush failed"):
        pool.close_session("crashy")
    assert handle.closed
    assert _registrations(pool, handle) == []
    assert len(pool) == 0 and len(pool.runtime_factory) == 0
    assert pool.backend_stats["tasks_seen"] == served
    with pytest.raises(SessionClosedError):
        handle.execute_task(Task("T"))
    pool.open_session("crashy")  # the id is immediately reusable


def test_counters_are_lifetime_and_gauges_are_open_only(pool):
    """One meaning per key, on every backend."""
    handle = pool.open_session("a")
    _serve(handle)
    handle.flush()
    live = pool.backend_stats
    assert live["sessions_open"] == 1 and live["nodes"] == handle.num_nodes
    assert live["tasks_seen"] == 300 and live["pointer_collapses"] > 0
    pool.close_session("a")
    closed = pool.backend_stats
    for key in LIFETIME:
        assert closed[key] == live[key], key
    for key in GAUGES:
        if (pool.backend_kind, key) != ("service", "memo_tokens_held"):
            assert closed[key] == 0, key
    assert closed["sessions_open"] == 0 and closed["sessions_opened"] == 1
    # A second session adds to the counters and maxes the peak.
    _serve(pool.open_session("b"))
    both = pool.backend_stats
    assert both["tasks_seen"] == 600
    assert both["active_pointer_peak"] >= closed["active_pointer_peak"]


def test_state_warm_starts_once_per_session(pool):
    handle = pool.open_session("cold")
    _serve(handle)
    state = dehydrate(handle)
    assert state.backend == pool.backend_kind and state.num_candidates > 0
    pool.close_session("cold")
    assert pool.backend_stats["warm_starts"] == 0
    warm = pool.open_session("warm", state=state)
    # Every replica hydrated; the session counts once.
    assert [p.warm_starts for p in warm.processors] == [1] * warm.num_nodes
    assert len(warm.processor.replayer.trie.candidates) == state.num_candidates
    assert pool.backend_stats["warm_starts"] == 1
    # The warm session's counters resume from the snapshot, but the pool
    # counts the work it served once (regression: the retired "cold" 300
    # came back inside "warm"'s restored counters and were added again).
    assert pool.backend_stats["tasks_seen"] == 300
    _serve(warm)
    pool.close_session("warm")
    assert pool.backend_stats["warm_starts"] == 1  # lifetime
    assert pool.backend_stats["tasks_seen"] == 600
