"""The session-persistence property suite (``persist`` marker).

The headline property of the evict-without-forgetting work: a session
dehydrated at a flush fence and hydrated into a fresh backend produces a
subsequent decision stream **byte-identical** to a session that was
never evicted -- per application, on all three backends. Around it: the
canonical-serialization contract (``loads(dumps())`` round-trips to the
same bytes), digest tamper detection, the ``submit_many`` batch
helper's decision-neutrality, and the service's evict-then-readmit warm
start through the token-budgeted spill store.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import canon
from repro.api import (
    PersistFormatError,
    SessionClosedError,
    SessionState,
    SessionStateStore,
    TraceRecorder,
    collect_session_stats,
    open_session,
)
from repro.apps.base import capture_stream
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.persist import dehydrate_processor, hydrate_processor
from repro.runtime.runtime import Runtime
from repro.service import ApopheniaService
from repro.trace import TraceDocument, TraceFormatError

pytestmark = pytest.mark.persist

#: Same sizing as the api/service suites: small enough for tier-1,
#: large enough to mine candidates and fire traces on both stream halves.
FAST_CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)

#: Replicated runs reuse the fast sizing so hydrate parity is checked
#: under real (if quick) agreement-protocol work.
REPLICATED_CONFIG = FAST_CONFIG.with_overrides(num_nodes=3)

PARITY_APPS = ("s3d", "stencil", "jacobi", "cfd", "generative")

BACKENDS = ("standalone", "service", "replicated")

#: The dehydrate fence sits mid-stream: both halves must be long enough
#: to mine and fire, or "parity" would be vacuous.
SPLIT = 350

#: sha256 of ``SessionState.dumps()`` for the s3d state dehydrated at
#: ``SPLIT``, per backend (``test_dumps_bytes_are_pinned`` says how to
#: regenerate them).
PINNED_STATE_SHA256 = {
    "standalone":
        "a299479bbf77a4bd4d16de96e4bedc57fe9dcee6c70579c24c8ea66bb6d7c9ab",
    "replicated":
        "4861590ecefd4f319111e2ec6e1baf0d1714ebf8ce7bcc2d8ea2eaea31fb67b5",
}


@pytest.fixture(scope="module")
def app_streams():
    """One small captured stream per application type."""
    return {
        name: capture_stream(name, 700, task_scale=0.05)
        for name in PARITY_APPS
    }


@pytest.fixture(scope="module")
def documents(app_streams):
    """Both canonical document kinds of one s3d session -- its dehydrated
    state and its captured trace -- as ``(document, class, error type,
    tamper)``: :mod:`repro.canon` is under both, so the round-trip,
    tamper and unknown-version contracts are asserted once over the
    two. ``tamper`` makes a schema-valid edit to the parsed records."""
    def bump_a_counter(records):
        records[0]["replayer"]["counters"]["tasks_seen"] += 1

    def rename_a_task(records):
        next(r for r in records if r["record"] == "task")["name"] = "X"

    with _open("standalone", "s3d") as session:
        recorder = session.record_to(TraceRecorder(app="s3d"))
        _drive(session, app_streams["s3d"][:SPLIT])
        state = session.dehydrate()
    return (
        (state, SessionState, PersistFormatError, bump_a_counter),
        (recorder.document(), TraceDocument, TraceFormatError,
         rename_a_task),
    )


def _edited(document, edit):
    """``document``'s text with ``edit`` applied to its parsed records
    (one per line), re-serialized through :func:`repro.canon.dumps`."""
    text = document.dumps()
    records = [canon.loads(line, "line", ValueError)
               for line in text.splitlines()]
    edit(records)
    end = "\n" if text.endswith("\n") else ""
    return "".join(canon.dumps(record) + end for record in records)


def _fast_runtime():
    return Runtime(
        analysis_mode="fast", mismatch_policy="fallback", keep_task_log=False
    )


def _open(backend, session_id, state=None):
    """One session on the named backend, optionally warm-started."""
    if backend == "standalone":
        return open_session(
            session_id, config=FAST_CONFIG, runtime=_fast_runtime(),
            state=state,
        )
    if backend == "service":
        return open_session(
            session_id, backend=ApopheniaService(FAST_CONFIG), state=state
        )
    return open_session(
        session_id, backend="replicated", config=REPLICATED_CONFIG,
        state=state,
    )


def _drive(session, stream):
    for iteration, task in stream:
        session.set_iteration(iteration)
        session.submit(task)


def _uninterrupted(backend, app_name, stream):
    """Run A: one session across both halves, flushed at the fence --
    twice: what a fence leaves behind does not depend on how many times
    somebody flushed."""
    with _open(backend, app_name) as session:
        _drive(session, stream[:SPLIT])
        session.flush()
        session.flush()
        _drive(session, stream[SPLIT:])
        session.flush()
        return session.snapshot()


def _evicted_and_rehydrated(backend, app_name, stream):
    """Run B: dehydrate at the fence, resume on a *fresh* backend."""
    with _open(backend, app_name) as session:
        _drive(session, stream[:SPLIT])
        state = session.dehydrate()  # flushes: the same fence as run A
    blob = state.dumps()
    restored = SessionState.loads(blob)
    with _open(backend, app_name, state=restored) as session:
        _drive(session, stream[SPLIT:])
        session.flush()
        stats = session.stats()
        handle = session.handle
        snapshot = session.snapshot()
    return snapshot, stats, blob, handle


class TestWarmStartParity:
    """The acceptance property: eviction no longer forgets."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("app_name", PARITY_APPS)
    def test_hydrated_decisions_match_uninterrupted(
        self, app_streams, backend, app_name
    ):
        stream = app_streams[app_name]
        uninterrupted = _uninterrupted(backend, app_name, stream)
        hydrated, stats, blob, handle = _evicted_and_rehydrated(
            backend, app_name, stream
        )
        assert hydrated.decisions == uninterrupted.decisions
        # Learned state only: a fence leaves no match held to carry.
        assert "deferred" not in SessionState.loads(blob).payload["replayer"]
        assert uninterrupted.decision_trace, app_name  # traces really fired
        assert stats.warm_starts == 1
        if backend == "replicated":
            assert handle.decisions_agree(), [
                p.decision_trace() for p in handle.processors
            ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_with_retired_config_keys_still_hydrates(
        self, app_streams, backend
    ):
        """A state dehydrated while the paper's scoring constants and the
        per-token job latency were config fields carries them in its
        decision slice. They name no field now, so hydrate ignores them
        (the pending jobs' completion ops come from the executor's own
        model) and the warm start still matches the uninterrupted run."""
        stream = app_streams["s3d"]
        with _open(backend, "s3d") as session:
            _drive(session, stream[:SPLIT])
            payload = session.dehydrate().payload
        assert payload["jobs"]["pending"]
        payload["config"].update(count_cap=16, decay_rate=1e-4,
                                 replay_bonus=1.1,
                                 job_per_token_latency_ops=0.05)
        payload["digest"] = canon.digest(payload)
        state = SessionState.loads(SessionState(payload).dumps())
        with _open(backend, "s3d", state=state) as session:
            _drive(session, stream[SPLIT:])
            session.flush()
            hydrated = session.snapshot()
        assert hydrated.decisions == _uninterrupted(
            backend, "s3d", stream
        ).decisions

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_with_retired_overrun_counter_still_hydrates(
        self, app_streams, backend
    ):
        """A state dehydrated while injected overruns had a counter of
        their own carries ``deadline_overruns`` among its job counters.
        Those jobs are already counted in ``mining_failures``, so hydrate
        drops the key and the warm start matches the uninterrupted
        run."""
        stream = app_streams["s3d"]
        with _open(backend, "s3d") as session:
            _drive(session, stream[:SPLIT])
            payload = session.dehydrate().payload
        payload["jobs"]["counters"]["deadline_overruns"] = 3
        payload["digest"] = canon.digest(payload)
        state = SessionState.loads(canon.dumps(payload))
        with _open(backend, "s3d", state=state) as session:
            _drive(session, stream[SPLIT:])
            session.flush()
            hydrated = session.snapshot()
            again = session.dehydrate().payload
        assert "deadline_overruns" not in again["jobs"]["counters"]
        assert hydrated.decisions == _uninterrupted(
            backend, "s3d", stream
        ).decisions

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_with_retired_clock_copies_still_hydrates(
        self, app_streams, backend
    ):
        """A state dehydrated while the sampler, the replayer's stream
        position and the executor's job ids kept counters of their own
        carries copies of ``ops_observed``, ``tasks_seen`` and
        ``jobs_submitted``, and ``identifier_algorithm`` in its decision
        slice, and one dehydrated while ``candidate_staleness_horizon``
        or ``max_candidates`` was a knob carries it there. Hydrate
        ignores the copies and a retired knob at the value this tree
        runs, so the warm start matches the uninterrupted run. A state
        captured under the fixed finder, a staleness horizon or a
        candidate cap is refused: this tree spells that schedule
        ``multi_scale_factor = batchsize``, and evicts no candidate."""
        stream = app_streams["s3d"]
        with _open(backend, "s3d") as session:
            _drive(session, stream[:SPLIT])
            payload = session.dehydrate().payload
        ops = payload["finder"]["ops_observed"]
        payload["finder"]["sampler"] = {
            "arrivals": ops,
            "trigger": ops // FAST_CONFIG.multi_scale_factor,
        }
        payload["replayer"]["stream_index"] = (
            payload["replayer"]["counters"]["tasks_seen"])
        payload["jobs"]["next_job_id"] = (
            payload["jobs"]["counters"]["jobs_submitted"])

        def stamped(**retired):
            config = {**payload["config"], **retired}
            document = {**payload, "config": config}
            document["digest"] = canon.digest(document)
            return SessionState.loads(canon.dumps(document))

        state = stamped(identifier_algorithm="multi-scale",
                        candidate_staleness_horizon=None,
                        max_candidates=None)
        with _open(backend, "s3d", state=state) as session:
            _drive(session, stream[SPLIT:])
            session.flush()
            hydrated = session.snapshot()
        assert hydrated.decisions == _uninterrupted(
            backend, "s3d", stream
        ).decisions
        for name, value in (("identifier_algorithm", "fixed"),
                            ("candidate_staleness_horizon", 150),
                            ("max_candidates", 2)):
            with pytest.raises(PersistFormatError, match=name):
                _open(backend, "s3d", state=stamped(**{name: value}))


class TestRoundTripByteStability:
    """``loads(dumps())`` is the identity on bytes, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_round_trips_byte_identically(self, app_streams, backend):
        _, _, blob, _ = _evicted_and_rehydrated(
            backend, "s3d", app_streams["s3d"]
        )
        state = SessionState.loads(blob)
        assert state.dumps() == blob
        assert SessionState.loads(state.dumps()).dumps() == blob
        # The stamp is the text's: loads strips it, dumps writes it back.
        assert "digest" not in state.payload
        assert canon.loads(blob, "state", ValueError)["digest"] == (
            canon.digest(state.payload))

    @pytest.mark.parametrize("backend", ["standalone", "replicated"])
    def test_dumps_bytes_are_pinned(self, app_streams, backend):
        """``SessionState.dumps()`` of one fixed s3d state (dehydrated at
        ``SPLIT``) hashes to a recorded sha256, so a change that moves
        the writer's bytes cannot do so unnoticed. One that moves them
        on purpose records the new values: run this test, copy each
        ``got`` from its failure message into ``PINNED_STATE_SHA256``,
        and say in the change what moved and why."""
        with _open(backend, "s3d") as session:
            _drive(session, app_streams["s3d"][:SPLIT])
            state = session.dehydrate()
        got = hashlib.sha256(state.dumps().encode()).hexdigest()
        assert got == PINNED_STATE_SHA256[backend], f"got {got}"

    def test_hydrate_restores_rotation_keys(self, app_streams, monkeypatch):
        """The rotation groups come back keyed; hydrate hands each member
        its key instead of leaving Booth's algorithm to the next fire."""
        import repro.core.candidates as candidates

        with _open("standalone", "s3d") as session:
            _drive(session, app_streams["s3d"][:SPLIT])
            state = session.dehydrate()
        monkeypatch.setattr(candidates, "canonical_rotation", None)
        with _open("standalone", "s3d", state=state) as session:
            store = session.handle.processor.replayer.store
            assert store.by_rotation
            for key, (members, _total) in store.by_rotation.items():
                assert members
                for member in members:
                    assert member.rotation_key == key
                    assert store.cycle_members(member) is members

    def test_dump_load_file_round_trip(self, documents, tmp_path):
        for document, kind, _error, _tamper in documents:
            text = document.dumps()
            assert _edited(document, lambda records: None) == text
            path = document.dump(tmp_path / kind.__name__)
            assert kind.load(path).dumps() == kind.loads(text).dumps() == text

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=6),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=4), children, max_size=4),
        max_leaves=20,
    )

    @given(json_values)
    @settings(max_examples=150, deadline=None)
    def test_canonical_text_ignores_key_order(self, value):
        """``canon.dumps`` is a function of the value, not of its dicts'
        insertion history -- what a digest over it relies on."""
        def reordered(node):
            if isinstance(node, dict):
                return {k: reordered(node[k]) for k in reversed(list(node))}
            if isinstance(node, list):
                return [reordered(item) for item in node]
            return node

        text = canon.dumps(value)
        assert canon.dumps(reordered(value)) == text
        assert canon.loads(text, "value", ValueError) == value
        stamped = {"payload": value, "digest": "anything"}
        assert canon.digest(stamped) == canon.digest(reordered(stamped)) \
            == canon.digest({"payload": value})


class TestDigestTamperDetection:
    def test_tampered_payload_fails_loads(self, documents):
        for document, kind, error, tamper in documents:
            with pytest.raises(error, match="digest"):
                kind.loads(_edited(document, tamper)).verify()

    def test_missing_field_rejected(self, documents):
        """The error names the field, stamp or not: ``rotations`` of the
        state, a task record's ``name``, and each kind's digest stamp.
        So it does inside a state's nested sections: hydrate restores
        the declared metrics and nothing else a counter table names -- a
        digest is a checksum, anyone can restamp it."""
        def holder(records, field):
            return next(r for r in reversed(records) if field in r)

        for document, kind, error, _tamper in documents:
            stamp = "digest" if kind is SessionState else "stream_digest"
            body = "rotations" if kind is SessionState else "name"
            for field in (body, stamp):
                def drop(records):
                    del holder(records, field)[field]
                with pytest.raises(error, match=f"missing '{field}'"):
                    kind.loads(_edited(document, drop))

        for section, field, value, complaint in (
            # Would hydrate into an executor that degrades every job ...
            ("jobs", "counters", {"deadline_tokens": 1},
             "missing 'jobs_submitted'"),
            # ... or whose next submit raises TypeError.
            ("jobs", "counters", {"_schedule": 0},
             "missing 'jobs_submitted'"),
            ("replayer", "counters", {"not_a_counter": 1},
             "missing 'tasks_seen'"),
            ("jobs", "pending", [{"job_id": 0}],
             "missing 'submitted_at_op'"),
            (None, "finder", {}, "missing 'buffer'"),
        ):
            def put(records):
                state = records[0]
                (state[section] if section else state)[field] = value
                state["digest"] = canon.digest(state)
            text = _edited(documents[0][0], put)
            with pytest.raises(PersistFormatError, match=complaint):
                SessionState.loads(text)
            # As a raw payload hydrate refuses it before touching the
            # target.
            target = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
            with pytest.raises(PersistFormatError, match=complaint):
                hydrate_processor(
                    target, canon.loads(text, "state", ValueError)
                )
            assert not target.replayer.trie.candidates
            assert not target.finder.buffer
            assert not any(
                collect_session_stats(target).replayer_counters()
            )
            assert target.executor.jobs_submitted == 0

    def test_unknown_version_rejected(self, documents):
        """Only version 1 reads: no reader table to look a version up in,
        so the schema's own check refuses the rest, whatever their type."""
        for document, kind, error, _tamper in documents:
            for version in (99, 2, "1", None, True):
                def from_elsewhere(records):
                    records[0]["version"] = version
                with pytest.raises(error, match="version"):
                    kind.loads(_edited(document, from_elsewhere))

    def test_non_json_rejected(self, documents):
        for document, kind, error, _tamper in documents:
            with pytest.raises(error, match="not valid JSON"):
                kind.loads(document.dumps()[:-40] + "not a document\n")


class TestSubmitMany:
    """The batch helper is sugar, not semantics."""

    def test_parity_with_submit_loop(self, app_streams):
        tasks = [task for _, task in app_streams["jacobi"]]
        with _open("standalone", "loop") as session:
            for task in tasks:
                session.submit(task)
            session.flush()
            looped = session.snapshot()
        with _open("standalone", "batch") as session:
            submitted = session.submit_many(tasks)
            session.flush()
            batched = session.snapshot()
        assert submitted == len(tasks)
        assert batched.decisions == looped.decisions

    def test_accepts_any_iterable(self):
        with _open("standalone", "gen") as session:
            assert session.submit_many(iter([])) == 0

    def test_closed_session_raises(self):
        session = _open("standalone", "closed")
        session.close()
        with pytest.raises(SessionClosedError):
            session.submit_many([object()])
        with pytest.raises(SessionClosedError):
            session.dehydrate()


class TestServiceEvictReadmit:
    """LRU eviction spills into the state store; re-admission warm-starts."""

    def _service(self, budget):
        return ApopheniaService(
            FAST_CONFIG.with_overrides(
                max_sessions=1, session_state_budget=budget
            )
        )

    def test_evicted_tenant_resumes_byte_identically(self, app_streams):
        stream = app_streams["s3d"]
        service = self._service(budget=100_000)
        first = open_session("s3d", backend=service)
        _drive(first, stream[:SPLIT])
        first.flush()
        # A second tenant evicts s3d: dehydrated into the spill store,
        # not forgotten.
        other = open_session("stencil", backend=service)
        assert service.sessions_evicted == 1
        assert service.state_store.states_held == 1
        assert "s3d" in service.state_store
        # Re-admission pops the state and warm-starts (and stencil is
        # spilled in turn -- capacity is still one).
        resumed = open_session("s3d", backend=service)
        assert service.backend_stats["warm_starts"] == 1
        assert "s3d" not in service.state_store
        assert "stencil" in service.state_store
        # The learned trie is back before any new task arrives.
        assert resumed.handle.processor.replayer.trie.candidates
        _drive(resumed, stream[SPLIT:])
        resumed.flush()
        snapshot = resumed.snapshot()
        assert resumed.stats().warm_starts == 1
        resumed.close()
        other.close()
        # Byte-identical to a tenant that was never evicted.
        twin = _uninterrupted("service", "s3d", stream)
        assert snapshot.decisions == twin.decisions

    def test_oversize_state_is_rejected_and_restart_is_cold(
        self, app_streams
    ):
        stream = app_streams["s3d"]
        service = self._service(budget=10)  # nothing fits
        first = open_session("s3d", backend=service)
        _drive(first, stream[:SPLIT])
        open_session("stencil", backend=service)
        assert service.sessions_evicted == 1
        assert service.state_store.states_held == 0
        assert service.state_store.tokens_held == 0
        assert "s3d" not in service.state_store
        resumed = open_session("s3d", backend=service)
        assert service.backend_stats["warm_starts"] == 0
        assert not resumed.handle.processor.replayer.trie.candidates

    def test_stats_surface_gauges(self, app_streams):
        service = self._service(budget=100_000)
        session = open_session("s3d", backend=service)
        _drive(session, app_streams["s3d"][:SPLIT])
        open_session("stencil", backend=service)
        stats = service.backend_stats
        assert stats["states_held"] == 1
        assert stats["state_tokens_held"] > 0
        assert stats["warm_starts"] == 0


class TestDigestOnlyInText:
    """The digest stamp is the text's: ``dumps`` writes it, ``loads``
    checks it, and a state that never leaves the process has none."""

    def test_in_process_round_trips_compute_no_digest(
        self, app_streams, monkeypatch
    ):
        def no_digest(payload):
            raise AssertionError("a digest was computed in process")

        monkeypatch.setattr(canon, "digest", no_digest)
        stream = app_streams["s3d"]
        service = ApopheniaService(FAST_CONFIG.with_overrides(
            max_sessions=1, session_state_budget=100_000))
        _drive(open_session("s3d", backend=service), stream[:SPLIT])
        open_session("stencil", backend=service)  # evicts s3d
        assert "digest" not in service.state_store.get("s3d").payload
        resumed = open_session("s3d", backend=service)  # re-admits it
        assert resumed.stats().warm_starts == 1
        with _open("standalone", "s3d") as session:
            _drive(session, stream[:SPLIT])
            state = session.dehydrate()
        assert "digest" not in state.payload
        with _open("standalone", "s3d", state=state) as session:
            assert session.stats().warm_starts == 1
            assert session.handle.processor.replayer.trie.candidates

    def test_dumps_and_loads_digest_once_each(self, documents, monkeypatch):
        state = documents[0][0]
        digest, calls = canon.digest, []
        monkeypatch.setattr(canon, "digest", lambda payload: (
            calls.append(payload), digest(payload))[1])
        text = state.dumps()
        assert len(calls) == 1
        SessionState.loads(text)
        assert len(calls) == 2


class _StubState:
    def __init__(self, token_cost):
        self.token_cost = token_cost


class TestSessionStateStore:
    def test_lru_eviction_respects_budget(self):
        store = SessionStateStore(token_budget=100)
        assert store.put("a", _StubState(60))
        assert store.put("b", _StubState(50))  # evicts a (60 + 50 > 100)
        assert "a" not in store
        assert "b" in store
        assert store.tokens_held == 50
        assert len(store) == 1

    def test_get_refreshes_recency(self):
        store = SessionStateStore(token_budget=100)
        store.put("a", _StubState(40))
        store.put("b", _StubState(40))
        assert store.get("a") is not None  # a becomes most-recent
        store.put("c", _StubState(40))  # b, not a, is evicted
        assert "a" in store
        assert "b" not in store

    def test_restore_releases_tokens(self):
        store = SessionStateStore(token_budget=100)
        store.put("a", _StubState(70))
        assert store.pop("a").token_cost == 70
        assert store.tokens_held == 0
        assert store.pop("a") is None
        assert "a" not in store

    def test_replacement_releases_old_cost(self):
        store = SessionStateStore(token_budget=100)
        store.put("a", _StubState(70))
        store.put("a", _StubState(20))
        assert store.tokens_held == 20
        assert len(store) == 1

    def test_unbounded_store_never_evicts(self):
        store = SessionStateStore(token_budget=None)
        for i in range(50):
            store.put(f"s{i}", _StubState(1000))
        assert store.states_held == 50
        assert all(f"s{i}" in store for i in range(50))


class TestHydrateGuards:
    def _state(self, app_streams):
        with _open("standalone", "s3d") as session:
            _drive(session, app_streams["s3d"][:SPLIT])
            return session.dehydrate()

    def test_config_mismatch_rejected(self, app_streams):
        state = self._state(app_streams)
        mismatched = ApopheniaProcessor(
            _fast_runtime(), FAST_CONFIG.with_overrides(min_trace_length=5)
        )
        with pytest.raises(PersistFormatError, match="min_trace_length"):
            hydrate_processor(mismatched, state)

    def test_non_fresh_processor_rejected(self, app_streams):
        state = self._state(app_streams)
        processor = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
        _, task = app_streams["s3d"][0]
        processor.execute_task(task)
        with pytest.raises(PersistFormatError, match="fresh"):
            hydrate_processor(processor, state)

    def test_undeclared_fields_are_dropped(self, app_streams):
        """Hydrate restores what the schema declares and nothing else.
        A v1 state written when a fence could leave a match held still
        loads; that match's tasks were already forwarded, so the first
        task served must not fire it (it used to: an empty trace)."""
        payload = self._state(app_streams).payload
        candidate = payload["candidates"][0]
        end = payload["replayer"]["counters"]["tasks_seen"]
        payload["replayer"]["deferred"] = {
            "candidate": candidate["trace_id"],
            "start_index": end - len(candidate["tokens"]),
            "end_index": end,
        }
        # Nor does a name a counter table does not declare land anywhere.
        payload["jobs"]["counters"]["deadline_tokens"] = 1
        payload["digest"] = canon.digest(payload)
        processor = hydrate_processor(
            ApopheniaProcessor(_fast_runtime(), FAST_CONFIG),
            SessionState.loads(canon.dumps(payload)),
        )
        assert not hasattr(processor.executor, "deadline_tokens")
        fired = processor.replayer.traces_fired
        iteration, task = app_streams["s3d"][SPLIT]
        processor.set_iteration(iteration)
        processor.execute_task(task)
        assert processor.replayer.traces_fired == fired

    @pytest.mark.parametrize("case", [
        "rotation member not a candidate",
        "unknown last_fired",
        "rotation made of lists",
        "pending job result entry [[1]]",
        "trace_log entry 5",
        "candidate with empty tokens",
        "duplicate trace_id",
        "next_candidate_id 0",
        "jobs_submitted at a pending job_id",
        "pending job ids not increasing",
        "pending result tokens that are lists",
        "finder buffer entry a list",
        "agreed ingest point for no pending job",
        "two candidates with one token run",
        "a candidate in two rotation groups",
        "rotation length one past its run",
    ])
    def test_malformed_contents_fail_closed(self, app_streams, case):
        """Documents that pass the field-type schema and carry a valid
        digest, yet would break hydrate partway through (or, the
        duplicate id, be silently accepted): each is refused as a
        :class:`PersistFormatError` on load and on a raw-payload
        hydrate, and the refused hydrate leaves the processor as
        fresh as it was. An id clock at or behind an id the document
        holds would hand that id out again: the next ingest overwrites
        a live candidate's trie entry, the next submit repeats a job id
        (and its coordinator agreement key). A pending result's token
        that is a list raises ``TypeError`` at the next ingest; a
        finder-buffer entry that is one degrades every later mining job
        over it, silently, inside containment; an agreed ingest point
        for a job that is not pending is never retired, so the
        agreement table outgrows the jobs in flight. Two candidates
        with one token run make hydrate's second insert return the
        first candidate (a bare ``KeyError`` after the processor was
        touched); a candidate listed in a second group is keyed to one,
        so a later removal leaves a stale member in the other; and a
        group whose ``length`` is not its run's is never found again by
        the admissions of that cycle."""
        payload = self._state(app_streams).payload
        candidates = payload["candidates"]
        rotation = payload["rotations"][0]
        jobs = payload["jobs"]
        clock = jobs["counters"]["jobs_submitted"]
        assert clock >= 2  # room for two pending ids below the clock
        first = candidates[0]["trace_id"]

        def pending(job_id, result=()):
            jobs["pending"].append({
                "job_id": job_id, "submitted_at_op": 0, "num_tokens": 1,
                "degraded": False, "result": list(result)})
        edit = {
            "rotation member not a candidate": lambda: rotation[
                "members"].append(candidates[-1]["trace_id"] + 1),
            "unknown last_fired": lambda: payload["replayer"].update(
                last_fired=candidates[-1]["trace_id"] + 1),
            "rotation made of lists": lambda: rotation.update(
                rotation=[[token] for token in rotation["rotation"]]),
            "pending job result entry [[1]]": lambda: pending(0, [[1]]),
            "trace_log entry 5": lambda: payload["trace_log"].append(5),
            "candidate with empty tokens": lambda: candidates[0].update(
                tokens=[]),
            "duplicate trace_id": lambda: candidates[1].update(
                trace_id=candidates[0]["trace_id"]),
            "next_candidate_id 0": lambda: payload.update(
                next_candidate_id=0),
            "jobs_submitted at a pending job_id": lambda: pending(clock),
            "pending job ids not increasing": lambda: (
                pending(clock - 1), pending(clock - 2)),
            "pending result tokens that are lists": lambda: jobs[
                "pending"][0]["result"][0].__setitem__(0, [
                    [token] for token in jobs["pending"][0]["result"][0][0]]),
            "finder buffer entry a list": lambda: payload[
                "finder"]["buffer"].__setitem__(-1, [1, 2]),
            "agreed ingest point for no pending job": lambda: payload.update(
                coordinator={"margin_ops": 20, "waits": 0,
                             "agreed": [[10 ** 6, 5]]}),
            "two candidates with one token run": lambda: candidates[1].update(
                tokens=list(candidates[0]["tokens"])),
            "a candidate in two rotation groups": lambda: next(
                entry for entry in payload["rotations"]
                if first not in entry["members"]
            )["members"].append(first),
            "rotation length one past its run": lambda: rotation.update(
                length=rotation["length"] + 1),
        }[case]
        edit()
        payload["digest"] = canon.digest(payload)
        with pytest.raises(PersistFormatError):
            SessionState.loads(canon.dumps(payload))
        processor = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
        before = dehydrate_processor(processor).payload
        with pytest.raises(PersistFormatError):
            hydrate_processor(processor, payload)
        assert dehydrate_processor(processor).payload == before
        hydrate_processor(processor, self._state(app_streams))  # still fresh

    def test_stale_digest_raw_payload_refused(self, app_streams):
        """A raw payload is read like a loaded document, digest stamp
        included: a candidate edited under a stale digest is refused
        both ways, the refused hydrate leaves the processor fresh, and
        the reader leaves the caller's dict as it was."""
        document = canon.loads(
            self._state(app_streams).dumps(), "state", ValueError)
        document["candidates"][0]["occurrences"] += 5
        with pytest.raises(PersistFormatError, match="digest mismatch"):
            SessionState.loads(canon.dumps(document))
        processor = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
        before = dehydrate_processor(processor).payload
        with pytest.raises(PersistFormatError, match="digest mismatch"):
            hydrate_processor(processor, document)
        assert dehydrate_processor(processor).payload == before
        document["candidates"][0]["occurrences"] -= 5
        hydrate_processor(processor, document)  # still fresh
        assert "digest" in document
        assert processor.replayer.trie.candidates[
            document["candidates"][0]["trace_id"]
        ].occurrences == document["candidates"][0]["occurrences"]

    def test_dehydrate_accepts_bare_processor(self, app_streams):
        processor = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
        for iteration, task in app_streams["s3d"][:SPLIT]:
            processor.set_iteration(iteration)
            processor.execute_task(task)
        state = dehydrate_processor(processor, session_id="bare")
        assert state.session_id == "bare"
        assert state.num_candidates == len(
            processor.replayer.trie.candidates
        )
