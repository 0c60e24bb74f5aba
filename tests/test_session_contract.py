"""One lifecycle contract, three inputs.

Every tracing backend is the same ``SessionPool`` underneath, so the
open/close lifecycle, the exception-safe teardown and the meaning of each
``backend_stats`` key are asserted once, over all three
``TRACING_BACKENDS`` -- not re-stated per backend.
"""

import ast
import pathlib
from dataclasses import fields
from operator import add

import pytest

import repro
from repro.api import (
    TRACING_BACKENDS,
    PersistFormatError,
    SessionClosedError,
    open_session,
)
from repro.core.processor import ApopheniaConfig
from repro.metrics import MARKS, SessionStats
from repro.persist import dehydrate
from repro.runtime.session import RuntimeSessionFactory
from repro.runtime.task import Task
from repro.service.service import SessionHandle, collect_session_stats
from repro.trace import TraceFormatV1

pytestmark = [pytest.mark.api, pytest.mark.service, pytest.mark.replication]

CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
    num_nodes=3,
)

#: The schema's metrics (identity fields have no ``gauge`` reading).
#: Gauges describe what is held right now and read 0 with no session
#: open -- except the service's shared memo, which deliberately outlives
#: its tenants; everything else is lifetime, and a close must not forget
#: it (the service used to sum these over *open* sessions only).
METRICS = [name for name in MARKS if name not in ("session_id", "backend")]
GAUGES = [name for name in METRICS if MARKS[name]["gauge"]]
LIFETIME = [name for name in METRICS if not MARKS[name]["gauge"]]


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
    session = collect_session_stats(handle)
    assert live["sessions_open"] == 1 and live["nodes"] == handle.num_nodes
    assert live["tasks_seen"] == 300 and live["pointer_collapses"] > 0
    # A fence leaves nothing in flight: a second one moves no counter.
    handle.flush()
    assert collect_session_stats(handle) == session
    assert pool.backend_stats == live
    pool.close_session("a")  # flushes once more
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


def test_refused_admission_does_not_wedge_the_session_id(pool):
    """Regression: a refused warm start (hydrate fails closed under a
    mismatched decision config) or a failing build released nothing, so
    the id's runtime(s) and lane leaked and every later open raised
    ``session 'tenant' already has a runtime``."""
    handle = pool.open_session("tenant")
    _serve(handle, 600)
    state = dehydrate(handle)
    pool.close_session("tenant")
    before = pool.backend_stats
    with pytest.raises(PersistFormatError, match="min_trace_length"):
        pool.open_session(
            "tenant", config=CONFIG.with_overrides(min_trace_length=7),
            state=state,
        )
    with pytest.raises(ValueError, match="identifier_algorithm"):
        pool.open_session(
            "tenant", config=CONFIG.with_overrides(identifier_algorithm="?")
        )
    assert len(pool.runtime_factory) == 0
    assert pool.backend_kind != "service" or not pool.executor.lanes
    assert pool.backend_stats == before
    warm = pool.open_session("tenant", state=state)  # the id opens cleanly
    assert pool.backend_stats["warm_starts"] == 1
    assert len(pool.runtime_factory) == warm.num_nodes


def test_refused_admission_keeps_the_spilled_state():
    """The service's half of the same regression: the state ``_admit``
    popped out of the spill tier for a refused warm start goes back, so
    a retry under the matching config still warm-starts."""
    service = TRACING_BACKENDS["service"](
        CONFIG.with_overrides(max_sessions=1, session_state_budget=100_000)
    )
    _serve(service.open_session("tenant"), 600)
    service.open_session("other")  # evicts and spills "tenant"
    assert "tenant" in service.state_store
    with pytest.raises(PersistFormatError, match="min_trace_length"):
        open_session("tenant", backend=service, min_trace_length=7)
    assert "tenant" in service.state_store and not service.executor.lanes
    with open_session("tenant", backend=service) as session:
        assert session.stats().warm_starts == 1


def test_every_metric_is_declared_once_on_the_schema():
    """The one-declaration guard, in the style of
    ``test_every_config_field_has_a_reader``: every ``SessionStats``
    field carries every mark, and no other module under ``src/repro``
    keeps a list of metric names of its own (two or more in one tuple /
    list / set / dict literal, nested ones included) -- such lists are
    what drifted into four spellings of four facts. The one exemption is
    the v1 trace footer's gauge list: a fact about a frozen file format
    (the corpus bytes hold it), kept beside the rest of that schema."""
    for f in fields(SessionStats):
        assert set(f.metadata) == {
            "owner", "attr", "fold", "gauge", "decision", "restored"
        }, f.name
        assert f.metadata["fold"] in (add, max, None), f.name
    root = pathlib.Path(repro.__file__).parent
    listed = {}
    for path in sorted(root.rglob("*.py")):
        if path == root / "metrics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
                names = sorted({
                    c.value for c in ast.walk(node)
                    if isinstance(c, ast.Constant) and c.value in METRICS
                })
                if len(names) > 1:
                    listed[f"{path.relative_to(root)}:{node.lineno}"] = names
    (footer,) = [where for where, names in listed.items()
                 if where.startswith("trace/format.py:")
                 and set(names) < set(TraceFormatV1.FOOTER_GAUGES)]
    del listed[footer]
    assert listed == {}


def test_backend_stats_reports_every_metric_under_the_schema_spelling(pool):
    _serve(pool.open_session("a"))
    stats = pool.backend_stats
    assert [name for name in METRICS if name not in stats] == []
    for gone in ("lanes", "jobs_materialized", "agreement_entries",
                 "evictions"):
        assert gone not in stats
    assert not hasattr(pool, "stats")  # the service's alias went too
    session = collect_session_stats(pool.session("a"))
    for name in METRICS:
        if MARKS[name]["fold"] is not None:  # one session: its own values
            assert stats[name] == getattr(session, name), name


def test_replicas_differ_only_in_what_the_schema_calls_local():
    """The agreed-vs-local line, executable: under per-node completion
    jitter and injected mining faults, every replica of a session reads
    the same value for every ``decision``-marked metric (and the run is
    not vacuous: the shared memo makes ``memo_hits`` differ)."""
    backend = TRACING_BACKENDS["replicated"](CONFIG.with_overrides(
        fault_plan="seed=2,mining_failure_rate=0.2", max_candidates=3,
    ))
    handle = backend.open_session("r")
    _serve(handle, 900)
    replicas = [
        collect_session_stats(SessionHandle(
            "r", backend, [processor], coordinator=handle.coordinator
        ))
        for processor in handle.processors
    ]
    differing = {
        name for name in METRICS
        if len({getattr(stats, name) for stats in replicas}) > 1
    }
    assert "memo_hits" in differing
    assert [name for name in differing if MARKS[name]["decision"]] == []
    assert replicas[0].mining_failures > 0
