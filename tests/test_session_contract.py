"""One lifecycle contract, three inputs.

Every tracing backend is the same ``SessionPool`` underneath, so the
open/close lifecycle, the exception-safe teardown and the meaning of each
``backend_stats`` key are asserted once, over all three
``TRACING_BACKENDS`` -- not re-stated per backend.
"""

import ast
import gc
import pathlib
import weakref
from dataclasses import fields
from operator import add

import pytest

import repro
from repro.api import (
    TRACING_BACKENDS,
    PersistFormatError,
    SessionClosedError,
    SessionSnapshot,
    open_session,
)
from repro.core.coordination import IngestCoordinator
from repro.core.jobs import JobExecutor
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.core.trie import TrieNode
from repro.metrics import MARKS, SessionStats
from repro.persist import dehydrate
from repro.runtime.runtime import Runtime
from repro.runtime.task import Task
from repro.service.service import SessionHandle, collect_session_stats
from repro.trace import TraceFormatV1

#: Every scenario ends with the runtimes' trace check clean
#: (``conftest.py::session_engines``).
pytestmark = [pytest.mark.api, pytest.mark.service, pytest.mark.replication,
              pytest.mark.usefixtures("session_engines")]

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
#: The lifetime counters a session carries (the pool's own, such as
#: ``sessions_evicted``, move when the pool acts, not when a session goes).
SERVED = [name for name in LIFETIME if MARKS[name]["fold"]]

#: One slot and a spill tier: what the service needs to evict (the other
#: backends ignore both knobs).
SPILLING = CONFIG.with_overrides(max_sessions=1, session_state_budget=100_000)


@pytest.fixture(params=sorted(TRACING_BACKENDS))
def pool(request):
    backend = TRACING_BACKENDS[request.param](CONFIG)
    assert backend.backend_kind == request.param
    return backend


def _serve(handle, tasks=300):
    """A period-3 stream: long enough to mine, trace, and (replicated)
    leave live agreements behind."""
    for i in range(tasks):
        handle.execute_task(Task(f"T{i % 3}"))


def _referents(handle):
    """Weak references to everything that serves a session: its
    processors and each one's runtime and executor (the service's lane),
    plus the replica set's coordinator."""
    serving = list(handle.processors)
    for processor in handle.processors:
        serving += [processor.runtime, processor.executor]
    if handle.coordinator is not None:
        serving.append(handle.coordinator)
    return [weakref.ref(obj) for obj in serving]


def _serving_objects():
    """Identities of every live object of a kind a session is built of."""
    gc.collect()
    kinds = (ApopheniaProcessor, Runtime, JobExecutor, IngestCoordinator)
    return {id(obj) for obj in gc.get_objects() if isinstance(obj, kinds)}


def _trie_nodes(pool):
    """Live trie nodes less the roots of ``pool``'s open sessions (an
    open session here is a fresh one, whose trie is its root alone)."""
    roots = {
        id(processor.replayer.trie.root)
        for handle in pool.sessions.values()
        for processor in handle.processors
    }
    return sum(
        isinstance(obj, TrieNode) and id(obj) not in roots
        for obj in gc.get_objects()
    )


def _boom():
    raise RuntimeError("flush failed")


def _close(pool, handle):
    pool.close_session("tenant")


def _close_with_the_last_flush_raising(pool, handle):
    # The replicas before it flush fine, then this raises. (Set on the
    # instance: ``monkeypatch`` would keep the processor alive.)
    handle.processors[-1].flush = _boom
    with pytest.raises(RuntimeError, match="flush failed"):
        pool.close_session("tenant")


def _refuse_the_next_admissions(pool, handle):
    state = dehydrate(handle)
    pool.close_session("tenant")
    before = _serving_objects()
    with pytest.raises(PersistFormatError, match="min_trace_length"):
        pool.open_session(
            "tenant", config=SPILLING.with_overrides(min_trace_length=7),
            state=state,
        )
    with pytest.raises(ValueError, match="factor and capacity"):
        pool.open_session(
            "tenant", config=SPILLING.with_overrides(multi_scale_factor=0)
        )
    # What the refused attempts built before failing is garbage too.
    assert _serving_objects() <= before


def _evict(pool, handle):
    pool.open_session("other")
    assert pool.sessions_evicted == 1 and "tenant" in pool.state_store


LEAVING = {
    "close": _close,
    "close_raising": _close_with_the_last_flush_raising,
    "refused": _refuse_the_next_admissions,
    "evicted": _evict,
}


@pytest.mark.parametrize("kind, leaving", [
    (kind, leaving) for kind in sorted(TRACING_BACKENDS) for leaving in LEAVING
    if leaving != "evicted" or kind == "service"  # only the service evicts
])
def test_a_session_out_of_the_table_is_garbage(kind, leaving):
    """Leak-freedom is structural, not a release protocol: the session
    table is the only path from an id to what serves it, so however a
    session leaves the table -- closed, closed with a flush that raises,
    closed and then refused re-admission (a mismatched warm start, a
    failing ``_build``), evicted -- dropping the handle frees every
    processor, runtime, executor / lane and coordinator it had, its
    lifetime counters stay in ``backend_stats``, and the id opens again
    at once. (PR 5 onwards found the leaked lane / runtime / coordinator
    registration once per backend, and PR 22 the ``already has a
    runtime`` wedge; there is no registry left for either.)

    And a closed session is no cycle: with the collector off, reference
    counting alone frees all of it -- every trie node included -- the
    moment the handle goes."""
    pool = TRACING_BACKENDS[kind](SPILLING)
    gc.collect()
    gc.disable()
    try:
        nodes = _trie_nodes(pool)
        handle = pool.open_session("tenant")
        _serve(handle, 600)
        handle.flush()  # a fence: the teardown's own flush moves no counter
        served = {name: pool.backend_stats[name] for name in SERVED}
        referents = _referents(handle)
        assert len(referents) >= 3 * handle.num_nodes  # not vacuous
        assert _trie_nodes(pool) > nodes + 10
        LEAVING[leaving](pool, handle)
        assert handle.closed and "tenant" not in pool.sessions
        del handle
        assert [ref() for ref in referents if ref() is not None] == []
        assert _trie_nodes(pool) == nodes
    finally:
        gc.enable()
    assert {name: pool.backend_stats[name] for name in SERVED} == served
    pool.open_session("tenant")


def test_an_evicted_session_dehydrates_to_its_spilled_state():
    """Eviction unlinks the session's match engine but keeps its trie:
    the client's evicted ``Session`` still dehydrates, to the very state
    the spill tier holds, and warm-starts from it."""
    pool = TRACING_BACKENDS["service"](SPILLING)
    session = open_session("tenant", backend=pool)
    _serve(session.handle, 600)
    pool.open_session("other")
    assert session.handle.closed and "tenant" in pool.state_store
    state = session.dehydrate()
    assert state.num_candidates > 0  # not vacuous
    assert state.dumps() == pool.state_store.get("tenant").dumps()
    pool.close_session("other")
    warm = pool.open_session("tenant")
    assert warm.processor.warm_starts == 1
    traced = warm.processor.replayer.tasks_traced
    _serve(warm, 30)
    warm.flush()
    assert warm.processor.replayer.tasks_traced > traced


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


def test_every_pool_builds_runtimes_from_the_one_spec(pool):
    """No pool keeps a per-task log by default: a served session's
    runtimes hold no task record and no iteration's end, and
    ``traced_fraction`` / ``throughput`` say why they cannot answer
    instead of reading 0. A session opened on runtimes of its own that
    keep the log still answers."""
    handle = pool.open_session("tenant")
    for iteration in range(3):
        handle.set_iteration(iteration)
        _serve(handle)
    for processor in handle.processors:
        assert processor.runtime.task_log == []
        assert processor.runtime.iteration_end == {}
        with pytest.raises(ValueError, match="keep_task_log"):
            processor.runtime.traced_fraction()
        with pytest.raises(ValueError, match="keep_task_log"):
            processor.runtime.throughput(0)
    owned = [Runtime(analysis_mode="fast", mismatch_policy="fallback")
             for _ in handle.processors]
    logging = type(pool)(CONFIG).open_session(
        "tenant",
        **({"runtimes": owned} if pool.backend_kind == "replicated"
           else {"runtime": owned[0]}),
    )
    for iteration in range(3):
        logging.set_iteration(iteration)
        _serve(logging)
    logging.flush()
    for processor in logging.processors:
        assert len(processor.runtime.task_log) == 900
        assert 0.0 < processor.runtime.traced_fraction() <= 1.0
        assert processor.runtime.throughput(0) > 0.0


def test_close_is_exception_safe(pool, monkeypatch):
    """A flush that raises during close still frees the table entry,
    marks the handle closed and keeps the lifetime counters (that nothing
    else is left behind is ``test_a_session_out_of_the_table_is_garbage``)."""
    handle = pool.open_session("crashy")
    _serve(handle)
    served = pool.backend_stats["tasks_seen"]
    monkeypatch.setattr(handle.processors[-1], "flush", _boom)
    with pytest.raises(RuntimeError, match="flush failed"):
        pool.close_session("crashy")
    assert handle.closed and len(pool) == 0
    assert pool.backend_stats["tasks_seen"] == served
    with pytest.raises(SessionClosedError):
        handle.execute_task(Task("T"))


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
    """A refused warm start (hydrate fails closed under a mismatched
    decision config) or a failing build moves no counter and leaves the
    id free (regression: the runtimes and lane built for the refused
    attempt stayed registered, and every later open raised ``session
    'tenant' already has a runtime``)."""
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
    with pytest.raises(ValueError, match="factor and capacity"):
        pool.open_session(
            "tenant", config=CONFIG.with_overrides(multi_scale_factor=0)
        )
    assert pool.backend_stats == before
    pool.open_session("tenant", state=state)  # the id opens cleanly
    assert pool.backend_stats["warm_starts"] == 1


def _tier(service):
    """The spill tier's contents, in recency order, as one comparable
    value."""
    store = service.state_store
    return (store.get("tenant"), list(store._entries), store.tokens_held)


def test_refused_admission_keeps_the_spilled_state():
    """The service's half of the same regression: a refused warm start
    or a failing build leaves the spill tier exactly as it found it --
    the state still held, and nothing evicted or refused that a store
    that never happened would have pushed out -- so a retry under the
    matching config still warm-starts."""
    service = TRACING_BACKENDS["service"](SPILLING)
    _serve(service.open_session("tenant"), 600)
    service.open_session("other")  # evicts and spills "tenant"
    service.close_session("other")
    found = _tier(service)
    assert "tenant" in service.state_store
    with pytest.raises(PersistFormatError, match="min_trace_length"):
        open_session("tenant", backend=service, min_trace_length=7)
    with pytest.raises(ValueError, match="factor and capacity"):
        service.open_session(
            "tenant", config=SPILLING.with_overrides(multi_scale_factor=0)
        )
    assert _tier(service) == found
    with open_session("tenant", backend=service) as session:
        assert session.stats().warm_starts == 1
        assert "tenant" not in service.state_store


def test_an_open_session_has_no_spilled_state():
    """Regression: ``_admit`` popped the spilled state only when no
    explicit ``state`` was passed, so a session warm-started from its own
    snapshot left the superseded one in the tier -- and after a
    deliberate close (which everywhere else means the next open is cold)
    the next open resurrected it."""
    service = TRACING_BACKENDS["service"](SPILLING)
    handle = service.open_session("a")
    _serve(handle, 600)
    explicit = dehydrate(handle)
    service.open_session("b")  # evicts and spills "a" at stream index 600
    service.close_session("b")
    assert "a" in service.state_store
    warm = service.open_session("a", state=explicit)
    assert "a" not in service.state_store
    _serve(warm, 900)
    service.close_session("a")
    cold = collect_session_stats(service.open_session("a"))
    assert (cold.warm_starts, cold.tasks_seen) == (0, 0)


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


@pytest.mark.parametrize("plan", [None, "seed=7,mining_failure_rate=0.3"])
@pytest.mark.parametrize("kind", sorted(TRACING_BACKENDS))
def test_memo_hit_rate_is_hits_per_job_on_every_backend(kind, plan):
    """One formula for ``memo_hit_rate``: ``memo_hits / jobs_submitted``,
    as on ``SessionStats``. A degraded job never looks the memo up, so
    under faults the shared memo's own hits-per-lookup is another
    number; the service used to report that one under this key. Where
    the hits land is the memo sizing: the service's tenants share one
    memo; a replica set's memo answers nodes 1..N-1 (the pool reports
    node 0, which mines); a standalone session has no memo."""
    pool = TRACING_BACKENDS[kind](CONFIG.with_overrides(fault_plan=plan))
    handles = [pool.open_session(sid) for sid in ("a", "b")]
    for handle in handles:
        _serve(handle)
    stats = pool.backend_stats
    if kind == "service":
        assert stats["memo_hits"] > 0
    elif kind == "replicated":
        assert handles[0].processors[1].executor.memo_hits > 0
    else:
        assert handles[0].processor.executor.memo is None
        assert stats["memo_hits"] == 0
    assert (stats["degraded_jobs"] > 0) == (plan is not None)
    assert stats["memo_hit_rate"] == \
        stats["memo_hits"] / stats["jobs_submitted"]


@pytest.mark.parametrize("kind", sorted(TRACING_BACKENDS))
def test_one_stats_type_on_every_path(kind):
    """``SessionStats`` is the only stats type: the handle's ``stats``
    is the facade's ``stats()`` while the session serves and after it
    leaves the table (evicted, on the service; closed, elsewhere), and
    the objects that count hold plain counters, no stats object."""
    pool = TRACING_BACKENDS[kind](SPILLING)
    session = open_session("tenant", backend=pool)
    _serve(session.handle)
    assert session.handle.stats == session.stats()
    if kind == "service":
        pool.open_session("other")  # evicts the tenant
    else:
        pool.close_session("tenant")
    assert session.handle.closed
    assert session.handle.stats == session.stats()
    processor = session.handle.processor
    assert not hasattr(processor, "stats")
    assert not hasattr(processor.replayer, "stats")


def test_a_processor_snapshots_like_its_handle():
    with open_session("solo", backend="standalone") as session:
        _serve(session.handle)
        session.flush()
        assert SessionSnapshot.of(session.handle.processor) == \
            SessionSnapshot.of(session.handle)


def test_replicas_differ_only_in_what_the_schema_calls_local():
    """The agreed-vs-local line, executable: under per-node completion
    jitter and injected mining faults, every replica of a session reads
    the same value for every ``decision``-marked metric (and the run is
    not vacuous: the shared memo makes ``memo_hits`` differ)."""
    backend = TRACING_BACKENDS["replicated"](CONFIG.with_overrides(
        fault_plan="seed=2,mining_failure_rate=0.2",
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
