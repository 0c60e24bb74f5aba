"""repro.trace: format integrity, corpus re-drive parity, generator laws.

The acceptance property of the trace subsystem is encoded here over the
checked-in fixtures under ``tests/corpus/``: every captured stream must
re-drive to a byte-identical decision stream on every tracing backend.
The fixtures are regenerated with ``make corpus`` (a diff-review
workflow, like ``make loc-budget``); the canonical-serialization tests
below are what make that diff meaningful.
"""

import json
import os

import pytest

import repro.api as api
from repro import canon
from repro.apps.generative import PHASE_GRAPHS
from repro.core.hashing import TaskHasher
from repro.registry import Registry
from repro.trace import (
    REPLAY_BACKENDS,
    TraceDocument,
    TraceFormatError,
    TraceFormatV1,
    TraceRecorder,
    TraceReplayHarness,
    rebuild_forest,
    replay_on_all,
)
from repro.trace.corpus import (
    CORPUS_CONFIG,
    CORPUS_ENTRIES,
    corpus_path,
    generative_stream,
    record_stream,
)
from repro.trace.format import (
    config_from_dict,
    config_to_dict,
    stream_digest,
)

#: Every re-drive ends with the runtimes' trace check clean
#: (``conftest.py::session_engines``).
pytestmark = [pytest.mark.trace, pytest.mark.usefixtures("session_engines")]

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_NAMES = sorted(CORPUS_ENTRIES)


@pytest.fixture(scope="module")
def corpus_docs():
    """Every checked-in fixture, loaded (and integrity-checked) once."""
    return {
        name: TraceDocument.load(corpus_path(CORPUS_DIR, name))
        for name in CORPUS_NAMES
    }


class TestCorpusIntegrity:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_fixture_checked_in(self, name):
        assert os.path.exists(corpus_path(CORPUS_DIR, name)), (
            f"missing corpus fixture {name}; run `make corpus`"
        )

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_json_round_trip_is_byte_identical(self, name, corpus_docs):
        """load -> dumps reproduces the file byte for byte (canonical
        serialization is what makes the `make corpus` diff a review)."""
        with open(corpus_path(CORPUS_DIR, name), encoding="utf-8") as fh:
            text = fh.read()
        document = corpus_docs[name]
        assert document.dumps() == text
        assert TraceDocument.loads(text).dumps() == text

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_footer_counts_and_digest(self, name, corpus_docs):
        document = corpus_docs[name]
        assert document.num_tasks == sum(
            1 for e in document.events() if e["record"] == "task"
        )
        assert document.footer["events"] == len(document.records)
        assert document.stream_digest() == document.footer["stream_digest"]

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_builder_regenerates_fixture_exactly(self, name):
        """The corpus builders are deterministic end to end: rebuilding a
        fixture from scratch reproduces the checked-in bytes, footer
        included -- a decision change that moves a footer fails here
        until `make corpus` accepts it."""
        with open(corpus_path(CORPUS_DIR, name), encoding="utf-8") as fh:
            text = fh.read()
        assert CORPUS_ENTRIES[name]().dumps() == text

    def test_tampered_stream_fails_verify(self, corpus_docs):
        """A schema-valid edit to an event still trips the integrity
        stamp -- hand-edited fixtures cannot sneak past a re-drive."""
        doc = TraceDocument.loads(corpus_docs["stencil"].dumps())
        first_task = next(
            r for r in doc.records if r["record"] == "task"
        )
        first_task["name"] = "TAMPERED"
        with pytest.raises(TraceFormatError, match="stream digest mismatch"):
            doc.verify()


class TestRedriveParity:
    """The acceptance property: capture once, re-drive byte-identically
    on every deployment."""

    @pytest.mark.parametrize("backend", REPLAY_BACKENDS)
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_byte_identical_decisions(self, name, backend, corpus_docs):
        verdict = TraceReplayHarness(corpus_docs[name], backend=backend).run()
        assert verdict.matched, verdict.summary()
        assert verdict.tasks == corpus_docs[name].num_tasks
        assert verdict.actual_digest == (
            corpus_docs[name].footer["decisions_digest"]
        )

    @pytest.mark.parametrize("backend", REPLAY_BACKENDS)
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_an_extra_trailing_fence_decides_nothing(
        self, name, backend, corpus_docs
    ):
        """A fence leaves nothing in flight, so a second one after the
        recorded last reaches the same footer digest."""
        recorded = corpus_docs[name]
        document = TraceDocument(
            recorded.header,
            recorded.records + [{"record": "flush"}],
            dict(recorded.footer),
        )
        document.footer["stream_digest"] = document.stream_digest()
        verdict = TraceReplayHarness(document, backend=backend).run()
        assert verdict.matched, verdict.summary()

    def test_replay_on_all_covers_every_backend(self, corpus_docs,
                                                session_engines):
        verdicts = replay_on_all(corpus_docs["jacobi"])
        assert set(verdicts) == set(REPLAY_BACKENDS)
        # One runtime per standalone / service session and one per node
        # replica, each checked on teardown: the check is not vacuous.
        assert len(session_engines) == 2 + CORPUS_CONFIG.num_nodes
        assert all(engine.traces_replayed for engine in session_engines)
        assert all(verdicts.values())

    def test_config_override_breaks_byte_identity_knowingly(self, corpus_docs):
        """An override re-drives under new knobs; the harness reports the
        divergence instead of asserting (what-if experiments)."""
        import dataclasses

        config = corpus_docs["stencil"].config()
        # stretch mining-job latency so candidates land far later than in
        # the capture: the decision stream visibly shifts
        config = dataclasses.replace(config, job_base_latency_ops=500)
        verdict = TraceReplayHarness(
            corpus_docs["stencil"], config=config
        ).run()
        assert not verdict.matched
        assert verdict.actual_digest != \
            corpus_docs["stencil"].footer["decisions_digest"]

    @pytest.mark.parametrize("stale,refused", [
        ({"sa_backend": None, "match_engine": None,
          "max_outstanding_jobs": 64, "lane_outstanding_quota": None}, None),
        ({"sa_backend": "doubling", "match_engine": "scan",
          "max_outstanding_jobs": 64, "lane_outstanding_quota": 16}, None),
        ({"max_outstanding_jobs": 2, "lane_outstanding_quota": 1}, None),
        ({"repeats_algorithm": "quick_matching_of_substrings",
          "mining_memo_capacity": 8, "count_cap": 16, "decay_rate": 1e-4,
          "replay_bonus": 1.1, "job_per_token_latency_ops": 0.05}, None),
        ({"identifier_algorithm": "multi-scale"}, None),
        ({"candidate_staleness_horizon": None,
          "mining_deadline_tokens": None, "max_candidates": None}, None),
        ({"identifier_algorithm": "fixed"}, "identifier_algorithm"),
        ({"candidate_staleness_horizon": 50}, "candidate_staleness_horizon"),
        ({"mining_deadline_tokens": 100}, "mining_deadline_tokens"),
        ({"max_candidates": 2}, "max_candidates"),
        ({"not_a_knob": 1}, "not_a_knob"),
    ], ids=["null", "named", "parent-commit", "paper-constants",
            "identifier-algorithm", "test-only-bounds",
            "fixed-finder-refused", "staleness-horizon-refused",
            "mining-deadline-refused", "max-candidates-refused",
            "unknown-key-refused"])
    def test_header_with_retired_config_keys_still_redrives(
            self, stale, refused, corpus_docs):
        """Regression: traces captured before ``sa_backend`` and
        ``match_engine`` were retired carry 28 config keys; ones captured
        before the service scheduler's ``max_outstanding_jobs`` and
        ``lane_outstanding_quota`` went (PR 15) carry 26; ones captured
        before the paper's constants stopped being knobs carry 24, six
        of them at the values the components now fix; ones captured
        before the fixed finder became ``multi_scale_factor = batchsize``
        carry ``identifier_algorithm``; ones captured before the
        staleness horizon and the mining deadline went carry 17, and
        ones captured before the candidate cap went carry 15. The
        loader drops a retired key recorded at the value this tree runs
        (or at any value, where no decision read it), so such a trace
        loads to the same config and re-drives byte-identical on every
        backend. One recorded at another value came from a schedule this
        tree cannot run: it is refused, not re-driven to a divergence,
        and so is a key that names no knob at all."""
        current = corpus_docs["stencil"]
        records = [json.loads(line) for line in current.dumps().splitlines()]
        records[0]["config"].update(stale)
        assert len(records[0]["config"]) == 14 + len(stale)
        old = TraceDocument.loads(
            "".join(canon.dumps(r) + "\n" for r in records)
        ).verify()
        if refused is not None:
            with pytest.raises(TraceFormatError, match=refused):
                old.config()
            return
        assert old.config() == current.config() == CORPUS_CONFIG
        for backend, verdict in replay_on_all(old).items():
            assert verdict.matched, (backend, verdict.summary())
            assert verdict.actual_digest == current.footer["decisions_digest"]

    @pytest.mark.parametrize("spec, refused", [
        ("seed=5,mining_overrun_rate=0", False),
        ("seed=5,mining_overrun_rate=0.05", True),
        ("seed=5,drop_nodes=1@500", True),
    ])
    def test_header_with_retired_fault_spec_key(self, spec, refused,
                                                corpus_docs):
        """A chaos trace recorded while injected overruns were a fault
        kind of their own names ``mining_overrun_rate`` in its spec. At
        0 it scheduled no overrun, so the trace loads and re-drives to
        its recorded digest; at any other value it is a bad fault spec,
        refused when the header config is read. A scheduled replica drop
        (``drop_nodes``) is refused at any value."""
        current = corpus_docs["stencil"]
        records = [json.loads(line) for line in current.dumps().splitlines()]
        records[0]["config"]["fault_plan"] = spec
        old = TraceDocument.loads(
            "".join(canon.dumps(r) + "\n" for r in records)
        ).verify()
        if refused:
            with pytest.raises(TraceFormatError, match="bad fault spec"):
                old.config()
            return
        assert old.config().fault_plan == spec
        for backend, verdict in replay_on_all(old).items():
            assert verdict.matched, (backend, verdict.summary())

    def test_rebuilt_forest_matches_topology(self, corpus_docs):
        document = corpus_docs["s3d"]
        _, regions = rebuild_forest(document)
        declared = [r for r in document.topology() if r["record"] == "region"]
        assert set(regions) == {r["uid"] for r in declared}
        for record in declared:
            region = regions[record["uid"]]
            assert region.uid == record["uid"]
            assert list(region.extent) == record["extent"]

    def test_harness_rejects_paths(self, corpus_docs):
        with pytest.raises(TypeError, match="TraceDocument"):
            TraceReplayHarness(corpus_path(CORPUS_DIR, "stencil"))


class TestRecorderRoundTrip:
    """Live capture -> export -> parse -> re-drive, no files involved."""

    def test_capture_and_redrive(self):
        document = record_stream(
            generative_stream(PHASE_GRAPHS["steady"], 80),
            app="generative",
            session_id="live",
        )
        parsed = TraceDocument.loads(document.dumps()).verify()
        assert parsed.app == "generative"
        assert parsed.session_id == "live"
        assert parsed.num_tasks == 80
        verdict = TraceReplayHarness(parsed).run()
        assert verdict.matched, verdict.summary()

    def test_recorder_attaches_via_open_session(self):
        recorder = TraceRecorder(app="stencil", meta={"who": "test"})
        stream = generative_stream(PHASE_GRAPHS["steady"], 12)
        with api.open_session(
            "rec", config=CORPUS_CONFIG, recorder=recorder
        ) as session:
            for iteration, task in stream:
                session.set_iteration(iteration)
                session.submit(task)
        document = recorder.document()
        assert document.header["meta"] == {"who": "test"}
        assert document.num_tasks == 12
        # close flushes while attached, so the trace ends on its fence
        assert document.records[-1]["record"] == "flush"

    def test_recorder_misuse_errors(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError, match="not attached"):
            recorder.on_flush()
        with pytest.raises(ValueError, match="not finalized"):
            recorder.document()
        with api.open_session(
            "rec2", config=CORPUS_CONFIG, recorder=recorder
        ) as session:
            with pytest.raises(ValueError, match="already"):
                session.record_to(TraceRecorder())
        with pytest.raises(ValueError, match="finalized"):
            recorder.on_flush()

    @pytest.mark.parametrize("backend", REPLAY_BACKENDS)
    def test_record_to_refuses_a_session_that_has_seen_a_task(self, backend):
        """A trace re-drives from a cold session, so a capture that starts
        mid-stream could not re-drive: it is refused, and the session
        serves on unrecorded."""
        stream = generative_stream(PHASE_GRAPHS["steady"], 12)
        with api.open_session(
            "late", backend=backend, config=CORPUS_CONFIG
        ) as session:
            session.submit(stream[0][1])
            with pytest.raises(ValueError, match="not cold"):
                session.record_to(TraceRecorder())
            assert session.recorder is None
            session.submit(stream[1][1])
            assert session.stats().tasks_seen == 2

    @pytest.mark.parametrize("backend", REPLAY_BACKENDS)
    def test_a_warm_started_session_refuses_a_recorder(self, backend):
        """``state=`` with ``recorder=`` raises before the backend opens
        anything, and ``record_to`` on a warm-started session raises."""
        stream = generative_stream(PHASE_GRAPHS["steady"], 40)
        with api.open_session("warm", config=CORPUS_CONFIG) as session:
            for iteration, task in stream:
                session.set_iteration(iteration)
                session.submit(task)
            state = session.dehydrate()
        pool = api.TRACING_BACKENDS[backend](CORPUS_CONFIG)
        with pytest.raises(ValueError, match="cold session"):
            api.open_session("warm", backend=pool, state=state,
                             recorder=TraceRecorder())
        assert pool.sessions == {}
        with api.open_session("warm", backend=pool, state=state) as session:
            assert session.stats().warm_starts == 1
            with pytest.raises(ValueError, match="not cold"):
                session.record_to(TraceRecorder())

    def test_a_spilled_tenant_refuses_a_recorder_before_admission(self):
        """Re-admitting a tenant whose state the spill tier holds is a warm
        start too: ``recorder=`` is refused before admission, so no other
        tenant is evicted, nothing opens, and the spilled state stays."""
        service = api.TRACING_BACKENDS["service"](CORPUS_CONFIG.with_overrides(
            max_sessions=1, session_state_budget=100_000
        ))
        first = api.open_session("a", backend=service)
        for iteration, task in generative_stream(PHASE_GRAPHS["steady"], 100):
            first.set_iteration(iteration)
            first.submit(task)
        api.open_session("b", backend=service)  # evicts and spills "a"
        assert "a" in service.state_store
        with pytest.raises(ValueError, match="cold session"):
            api.open_session("a", backend=service, recorder=TraceRecorder())
        assert sorted(service.sessions) == ["b"]
        assert "a" in service.state_store
        assert service.sessions_evicted == 1


class TestGenerativeDeterminism:
    """The phase-graph generator's reproducibility laws."""

    @staticmethod
    def _tokens(graph, n=200):
        hasher = TaskHasher(n)
        return [hasher.hash_task(t) for _, t in generative_stream(graph, n)]

    def test_same_seed_same_stream(self):
        graph = PHASE_GRAPHS["adversarial"]
        assert self._tokens(graph) == self._tokens(graph)

    def test_different_seed_different_stream(self):
        graph = PHASE_GRAPHS["adversarial"]
        assert self._tokens(graph) != self._tokens(graph.with_seed(999))

    def test_different_graph_different_structure(self):
        assert (self._tokens(PHASE_GRAPHS["steady"])
                != self._tokens(PHASE_GRAPHS["adversarial"]))

    def test_replay_fractions_structurally_distinct(self, corpus_docs):
        """The steady graph is built to be minable, the adversarial one to
        churn -- the pipeline's replay fraction must tell them apart."""
        steady = corpus_docs["generative-steady"].footer["gauges"]
        churn = corpus_docs["generative-adversarial"].footer["gauges"]
        assert steady["replay_fraction"] > churn["replay_fraction"] + 0.2

    def test_with_seed_preserves_structure(self):
        graph = PHASE_GRAPHS["nested"]
        reseeded = graph.with_seed(1234)
        assert reseeded.seed == 1234
        assert (reseeded.name, reseeded.start, reseeded.phases,
                reseeded.edges) == (graph.name, graph.start, graph.phases,
                                    graph.edges)

    def test_generative_is_a_registered_app(self):
        from repro.apps import APP_REGISTRY, build_app

        assert "generative" in APP_REGISTRY
        app = build_app("generative", mode="untraced", gpus=4,
                        task_scale=0.1, analysis_mode="fast")
        runtime = app.run(4)
        assert len(runtime.task_log) > 0


class TestFormatErrors:
    def test_truncated_document(self):
        with pytest.raises(TraceFormatError, match="header and a footer"):
            TraceDocument.loads('{"record":"header"}\n')

    def test_invalid_json_line(self, corpus_docs):
        text = corpus_docs["stencil"].dumps().replace(
            '{"record":"flush"}', "not json", 1
        )
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            TraceDocument.loads(text)

    def test_wrong_format_name(self):
        text = (
            '{"record":"header","format":"other","version":1,'
            '"session_id":null,"backend":null,"app":null,"config":{},'
            '"config_dropped":[],"meta":{}}\n'
            '{"record":"end","events":0,"tasks":0,"stream_digest":"x",'
            '"decisions_digest":"x","replayer":[],"gauges":{}}\n'
        )
        with pytest.raises(TraceFormatError, match="not a repro-trace"):
            TraceDocument.loads(text)

    def test_unknown_schema_version(self, corpus_docs):
        text = corpus_docs["stencil"].dumps().split("\n", 1)[1]
        for version in (99, 2, 0, "1", None, True):
            record = dict(corpus_docs["stencil"].header, version=version)
            with pytest.raises(TraceFormatError, match="version"):
                TraceDocument.loads(canon.dumps(record) + "\n" + text)

    @pytest.mark.parametrize("bad", [
        {"batchsize": "abc"},
        {"min_trace_length": 1},
        {"multi_scale_factor": None},
    ], ids=["wrong-type", "out-of-range", "null-number"])
    def test_header_config_fails_closed(self, bad, corpus_docs):
        """The header is outside the stream digest, so a hand-edited
        config loads and verifies; reading it raises the format's own
        error instead of a ``TypeError`` deep inside the re-drive."""
        records = [json.loads(line)
                   for line in corpus_docs["stencil"].dumps().splitlines()]
        records[0]["config"].update(bad)
        document = TraceDocument.loads(
            "".join(canon.dumps(r) + "\n" for r in records)
        ).verify()
        field = next(iter(bad))
        with pytest.raises(TraceFormatError, match=field):
            document.config()
        with pytest.raises(TraceFormatError, match=field):
            TraceReplayHarness(document).run()

    def test_unknown_record_kind(self):
        with pytest.raises(TraceFormatError, match="unknown record kind"):
            TraceFormatV1.validate({"record": "telemetry"})

    def test_malformed_requirement(self):
        with pytest.raises(TraceFormatError, match="requirement"):
            TraceFormatV1.validate({
                "record": "task", "name": "T", "reqs": [[1, "rw"]],
                "exec_cost": 0.0, "comm_cost": 0.0,
            })

    @pytest.mark.parametrize("case", [
        "region fields holding a list",
        "privilege 'bogus'",
        "requirement field a list",
        "partition kind 'bogus'",
    ])
    def test_schema_checks_what_lists_hold(self, case, corpus_docs):
        """Documents whose records have every field at its type, and
        whose stream digest is restamped, yet that the re-drive cannot
        read: a field list holding a list (``TypeError`` hashing it), a
        privilege no :class:`~repro.runtime.privilege.Privilege` has
        (``ValueError``), a partition kind the region tree does not
        know (silently read as aliased). Each is refused as a
        :class:`TraceFormatError` at load, before any re-drive."""
        records = [json.loads(line)
                   for line in corpus_docs["stencil"].dumps().splitlines()]
        region = next(r for r in records if r["record"] == "region")
        partition = next(r for r in records if r["record"] == "partition")
        requirement = next(
            r for r in records if r["record"] == "task")["reqs"][0]
        {
            "region fields holding a list": lambda: region.update(
                fields=[region["fields"]]),
            "privilege 'bogus'": lambda: requirement.__setitem__(
                1, "bogus"),
            "requirement field a list": lambda: requirement.__setitem__(
                2, [requirement[2]]),
            "partition kind 'bogus'": lambda: partition.update(
                kind="bogus"),
        }[case]()
        records[-1]["stream_digest"] = stream_digest(records[1:-1])
        text = "".join(canon.dumps(r) + "\n" for r in records)
        with pytest.raises(TraceFormatError):
            TraceDocument.loads(text)

    def test_undeclared_region_reference(self, corpus_docs):
        document = corpus_docs["stencil"]
        event = next(e for e in document.events() if e["record"] == "task")
        bad = dict(event, reqs=[[10 ** 9, "READ_ONLY", ["f"], None]])
        _, regions = rebuild_forest(document)
        with pytest.raises(TraceFormatError, match="undeclared"):
            TraceReplayHarness._synthesize(bad, regions)

    def test_config_round_trip(self):
        fields, dropped = config_to_dict(CORPUS_CONFIG)
        assert dropped == []
        rebuilt = config_from_dict(fields)
        assert config_to_dict(rebuilt)[0] == fields


class TestRegistryExposure:
    def test_trace_registries_in_api(self):
        registries = api.registries()
        assert isinstance(registries["phase_graphs"], Registry)
        assert {"steady", "baseline", "nested", "adversarial"} <= set(
            registries["phase_graphs"]
        )

    def test_lazy_api_exports_resolve(self):
        from repro.trace.recorder import TraceRecorder as Direct
        from repro.trace.replay import TraceReplayHarness as DirectHarness

        assert api.TraceRecorder is Direct
        assert api.TraceReplayHarness is DirectHarness
        with pytest.raises(AttributeError):
            api.DoesNotExist

    def test_corpus_entries_registry(self):
        assert isinstance(CORPUS_ENTRIES, Registry)
        assert set(CORPUS_NAMES) == {
            "s3d", "stencil", "jacobi", "cfd",
            "generative-steady", "generative-adversarial",
        }
