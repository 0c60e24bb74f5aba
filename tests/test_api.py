"""The deployment-agnostic client API (`repro.api`).

The load-bearing property is decision-stream parity: for every
application, the tbegin/tend stream produced via
``repro.api.open_session()`` must be byte-identical to driving an
``ApopheniaProcessor`` directly -- for both the standalone and the
service backend. On top of that: the validating config builder with
profiles and ``REPRO_*`` environment layering, the unified plugin
registries, the uniform ``SessionStats`` surface, size-aware shared-memo
admission, and the deprecation gate on shimmed constructors. (The open/close lifecycle contract every backend
shares lives in ``tests/test_session_contract.py``.)
"""

import ast
import pathlib

import pytest

import repro
import repro.api as api
from repro.api import (
    PROFILES,
    SessionSnapshot,
    StandaloneBackend,
    TRACING_BACKENDS,
    build_config,
    collect_session_stats,
    open_session,
)
from repro.apps.base import capture_stream
from repro.core.jobs import MiningMemo
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.registry import Registry, RegistryError
from repro.runtime.runtime import Runtime
from repro.runtime.task import Task
from repro.service import ApopheniaService

pytestmark = pytest.mark.api

#: Same sizing as the service suite: small enough for tier-1, large
#: enough to fire traces and reach full-buffer slices of the schedule.
FAST_CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)

PARITY_APPS = ("s3d", "stencil", "jacobi", "cfd")


@pytest.fixture(autouse=True)
def _no_ambient_repro_env(monkeypatch):
    """Strip REPRO_* from the environment: these suites assert exact
    configuration layering, which ambient deployment knobs would skew."""
    import os

    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        monkeypatch.delenv(var)


@pytest.fixture(scope="module")
def app_streams():
    """One small captured stream per application type."""
    return {
        name: capture_stream(name, 700, task_scale=0.05)
        for name in PARITY_APPS
    }


def _fast_runtime():
    return Runtime(
        analysis_mode="fast", mismatch_policy="fallback", keep_task_log=False
    )


def _drive_direct(stream, config=FAST_CONFIG):
    """The pre-facade idiom: construct and drive a processor by hand."""
    processor = ApopheniaProcessor(_fast_runtime(), config)
    for iteration, task in stream:
        processor.set_iteration(iteration)
        processor.execute_task(task)
    processor.flush()
    return SessionSnapshot.of(processor)


def _drive_session(session, stream):
    for iteration, task in stream:
        session.set_iteration(iteration)
        session.submit(task)
    session.flush()
    return session.snapshot()


class TestDecisionStreamParity:
    """The acceptance property: the facade never changes decisions."""

    @pytest.mark.parametrize("app_name", PARITY_APPS)
    def test_standalone_backend_matches_direct_processor(
        self, app_streams, app_name
    ):
        stream = app_streams[app_name]
        direct = _drive_direct(stream)
        with open_session(
            app_name, config=FAST_CONFIG, runtime=_fast_runtime()
        ) as session:
            facade = _drive_session(session, stream)
        assert facade.decisions == direct.decisions
        assert facade.decision_trace, app_name  # traces actually fired

    @pytest.mark.parametrize("app_name", PARITY_APPS)
    def test_service_backend_matches_direct_processor(
        self, app_streams, app_name
    ):
        stream = app_streams[app_name]
        direct = _drive_direct(stream)
        service = ApopheniaService(FAST_CONFIG)
        with open_session(app_name, backend=service) as session:
            facade = _drive_session(session, stream)
        assert facade.decisions == direct.decisions

    def test_interleaved_service_sessions_match_direct(self, app_streams):
        """All four apps through one service, task-by-task round-robin,
        each still byte-identical to its direct standalone run."""
        service = ApopheniaService(FAST_CONFIG)
        sessions = {
            name: open_session(name, backend=service)
            for name in PARITY_APPS
        }
        cursors = {name: 0 for name in PARITY_APPS}
        remaining = True
        while remaining:
            remaining = False
            for name in PARITY_APPS:
                i = cursors[name]
                if i >= len(app_streams[name]):
                    continue
                iteration, task = app_streams[name][i]
                session = sessions[name]
                session.set_iteration(iteration)
                session.submit(task)
                cursors[name] += 1
                remaining = True
        for name, session in sessions.items():
            session.flush()
            assert session.snapshot().decisions == _drive_direct(
                app_streams[name]
            ).decisions, name


class TestSessionLifecycle:
    def test_context_manager_closes(self):
        with open_session("cm", profile="reduced-scale") as session:
            session.submit(Task("T"))
        assert session.closed
        session.close()  # idempotent

    def test_auto_session_ids_are_unique(self):
        a = open_session(profile="reduced-scale")
        b = open_session(profile="reduced-scale")
        assert a.session_id != b.session_id
        a.close()
        b.close()

    def test_unknown_backend_name(self):
        with pytest.raises(RegistryError, match="service"):
            open_session("x", backend="replicated-someday")

    def test_service_attach_uses_service_config(self):
        service = ApopheniaService(FAST_CONFIG)
        with open_session("t", backend=service) as session:
            assert session.processor.config is service.config
        assert "t" not in service.sessions

    def test_service_attach_with_explicit_override(self):
        service = ApopheniaService(FAST_CONFIG)
        with open_session(
            "t", backend=service, config=FAST_CONFIG, max_trace_length=7
        ) as session:
            assert session.processor.config.max_trace_length == 7

    def test_bare_overrides_layer_on_the_backends_config(self):
        """A tenant tweaking one knob on a tuned service must get the
        service's config plus that knob -- not the default profile."""
        service = ApopheniaService(FAST_CONFIG)
        with open_session(
            "t", backend=service, max_trace_length=7
        ) as session:
            cfg = session.processor.config
            assert cfg.max_trace_length == 7
            assert cfg.batchsize == FAST_CONFIG.batchsize  # not 5000

    def test_close_tolerates_backend_side_eviction(self):
        service = ApopheniaService(FAST_CONFIG.with_overrides(max_sessions=1))
        first = open_session("first", backend=service)
        second = open_session("second", backend=service)  # evicts "first"
        assert first.handle.closed
        first.close()  # must not raise
        second.close()

    def test_submit_after_service_close_rejected(self):
        service = ApopheniaService(FAST_CONFIG)
        session = open_session("t", backend=service)
        session.close()
        with pytest.raises(RuntimeError):
            session.submit(Task("T"))

    def test_standalone_pool_isolates_sessions(self):
        backend = StandaloneBackend(FAST_CONFIG)
        a = open_session("a", backend=backend)
        b = open_session("b", backend=backend)
        assert a.runtime is not b.runtime
        assert a.processor is not b.processor
        with pytest.raises(ValueError):
            backend.open_session("a")
        a.close()
        b.close()
        assert len(backend) == 0

    def test_standalone_backend_stats_survive_session_close(self):
        """Lifetime counters must not vanish with the session, matching
        the service backend whose shared-executor aggregates persist."""
        backend = StandaloneBackend(FAST_CONFIG)
        with open_session("a", backend=backend) as session:
            for i in range(60):
                session.submit(Task(f"T{i % 2}"))
            session.flush()
            live = backend.backend_stats
        closed = backend.backend_stats
        assert live["jobs_submitted"] > 0
        assert closed["jobs_submitted"] == live["jobs_submitted"]
        assert closed["memo_hits"] == live["memo_hits"]
        assert closed["sessions_open"] == 0
        assert closed["sessions_opened"] == 1

    def test_tracing_backend_protocol_conformance(self):
        from repro.api import ReplicatedBackend, TracingBackend

        for cls in (ApopheniaService, StandaloneBackend, ReplicatedBackend):
            for member in ("backend_kind", "open_session", "close_session",
                           "backend_stats"):
                assert hasattr(cls, member), (cls, member)
            assert isinstance(cls(FAST_CONFIG), TracingBackend)
        assert set(TRACING_BACKENDS) == {"standalone", "service",
                                         "replicated"}
        # The processor is Algorithm 1 and nothing else: not a backend.
        processor = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
        assert not isinstance(processor, TracingBackend)


class TestConfigBuilder:
    def test_default_profile_is_paper_default(self):
        assert build_config(env={}) == ApopheniaConfig()

    def test_named_profiles_exist(self):
        assert {"paper-default", "reduced-scale", "service"} <= set(PROFILES)
        assert build_config(profile="service", env={}).shared_memo_capacity \
            == 1024

    def test_unknown_profile(self):
        with pytest.raises(RegistryError, match="paper-default"):
            build_config(profile="huge", env={})

    def test_override_beats_profile(self):
        cfg = build_config(profile="reduced-scale", env={}, batchsize=256)
        assert cfg.batchsize == 256
        assert cfg.multi_scale_factor == 25  # rest of profile intact

    def test_env_beats_override(self):
        cfg = build_config(
            profile="reduced-scale",
            env={"REPRO_BATCHSIZE": "512"},
            batchsize=256,
        )
        assert cfg.batchsize == 512

    def test_explicit_config_is_authoritative(self):
        """An explicitly passed config must come back knob-for-knob --
        no silent environment layering on top (the escape hatch parity
        tests and benchmarks rely on)."""
        cfg = build_config(
            config=FAST_CONFIG, env={"REPRO_BATCHSIZE": "512"}
        )
        assert cfg == FAST_CONFIG
        assert build_config(
            config=FAST_CONFIG, env={}, batchsize=512
        ).batchsize == 512  # keyword overrides still apply

    def test_facade_with_explicit_config_ignores_ambient_env(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BATCHSIZE", "64")
        with open_session(
            "pinned", config=FAST_CONFIG, runtime=_fast_runtime()
        ) as session:
            assert session.processor.config.batchsize == FAST_CONFIG.batchsize

    def test_service_attach_with_env_mapping_applies(self):
        """Passing env= when attaching to a backend is explicit
        configuration layered on the backend's config, not a no-op."""
        service = ApopheniaService(FAST_CONFIG)
        with open_session(
            "t", backend=service, env={"REPRO_BATCHSIZE": "512"}
        ) as session:
            cfg = session.processor.config
            assert cfg.batchsize == 512
            # Untouched knobs come from the service, not a profile.
            assert cfg.multi_scale_factor == FAST_CONFIG.multi_scale_factor

    def test_env_profile_selection(self):
        cfg = build_config(env={"REPRO_PROFILE": "service"})
        assert cfg.shared_memo_token_budget == 1_000_000
        # An explicit profile argument beats the environment's choice.
        cfg = build_config(
            profile="paper-default", env={"REPRO_PROFILE": "service"}
        )
        assert cfg.shared_memo_token_budget is None

    def test_env_optional_fields(self):
        assert build_config(
            env={"REPRO_MAX_TRACE_LENGTH": "200"}
        ).max_trace_length == 200
        assert build_config(
            env={"REPRO_MAX_TRACE_LENGTH": "none"}
        ).max_trace_length is None

    def test_stale_selection_variables_are_ignored(self):
        """``REPRO_SA_BACKEND`` / ``REPRO_MATCH_ENGINE`` and the service
        scheduler's ``REPRO_MAX_OUTSTANDING_JOBS`` /
        ``REPRO_LANE_OUTSTANDING_QUOTA`` named fields no decision read:
        a leftover value (even a once-invalid one) is ignored. So is a
        retired decision knob's variable at the value this tree runs
        (the paper constants' ``REPRO_DECAY_RATE`` /
        ``REPRO_REPEATS_ALGORITHM``, ``REPRO_MAX_CANDIDATES``)."""
        stale = {"REPRO_SA_BACKEND": "btree", "REPRO_MATCH_ENGINE": "nope",
                 "REPRO_MAX_OUTSTANDING_JOBS": "2",
                 "REPRO_LANE_OUTSTANDING_QUOTA": "0",
                 "REPRO_DECAY_RATE": "1e-4",
                 "REPRO_REPEATS_ALGORITHM": "quick_matching_of_substrings",
                 "REPRO_MAX_CANDIDATES": "none"}
        assert build_config(env=stale) == build_config(env={})
        assert build_config(
            config=ApopheniaConfig(), env=stale
        ) == ApopheniaConfig()

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_MAX_CANDIDATES", "2"),
        ("REPRO_CANDIDATE_STALENESS_HORIZON", "50"),
        ("REPRO_DECAY_RATE", "0.5"),
        ("REPRO_REPEATS_ALGORITHM", "lzw"),
        ("REPRO_IDENTIFIER_ALGORITHM", "fixed"),
    ])
    def test_retired_variable_at_another_value_is_refused(self, variable,
                                                          value):
        """A retired decision knob's variable at a value this tree does
        not run is refused, naming the variable, like the trace and
        state readers refuse a document recorded under it."""
        with pytest.raises(ValueError, match=variable):
            build_config(env={variable: value})
        service = ApopheniaService(FAST_CONFIG)
        with pytest.raises(ValueError, match=variable):
            open_session("t", backend=service, env={variable: value})

    def test_unknown_env_profile_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_PROFILE.*bogus"):
            build_config(env={"REPRO_PROFILE": "bogus"})

    def test_bad_env_value_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_BATCHSIZE"):
            build_config(env={"REPRO_BATCHSIZE": "many"})

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(min_trace_length=1),
            dict(batchsize=6, min_trace_length=5),
            dict(multi_scale_factor=0),
            dict(max_trace_length=3, min_trace_length=5),
            dict(job_base_latency_ops=-1),
            dict(num_nodes=0),
            dict(max_sessions=0),
            dict(batchsize="abc"),
            dict(batchsize=None),
            dict(hysteresis="high"),
            dict(num_nodes=True),
            dict(fault_quarantine_threshold=2.5),
            dict(shared_memo_token_budget=0),
            dict(session_state_budget=0),
            dict(hysteresis=float("nan")),
            dict(hysteresis=float("inf")),
        ],
    )
    def test_validation_rejects(self, overrides):
        with pytest.raises(ValueError):
            build_config(env={}, **overrides)

    def test_validation_at_open_session(self):
        with pytest.raises(ValueError, match="min_trace_length"):
            open_session("bad", min_trace_length=1)

    def test_every_config_field_has_a_reader(self):
        """The dead-knob guard: a field nothing reads as an attribute
        outside its own declaration (the ``ApopheniaConfig`` class, whose
        ``validate`` touches every field) and the builder
        (``api/config.py``) configures nothing. Deleting a knob's only
        reader fails here instead of leaving the knob behind."""
        root = pathlib.Path(repro.__file__).parent
        read = set()
        for path in sorted(root.rglob("*.py")):
            if path == root / "api" / "config.py":
                continue
            pending = [ast.parse(path.read_text(encoding="utf-8"))]
            while pending:
                node = pending.pop()
                if (isinstance(node, ast.ClassDef)
                        and node.name == "ApopheniaConfig"):
                    continue
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    read.add(node.attr)
                pending.extend(ast.iter_child_nodes(node))
        fields = ApopheniaConfig.field_names()
        assert len(fields) == 14
        assert len(ApopheniaConfig.decision_fields()) == 7
        assert [name for name in fields if name not in read] == []


class TestRegistries:
    def test_uniform_pattern_across_plugin_points(self):
        registries = api.registries()
        assert set(registries) == {
            "tracing_backends", "config_profiles", "apps", "phase_graphs",
        }
        for registry in registries.values():
            assert isinstance(registry, Registry)

    def test_get_app(self):
        from repro.apps import APP_REGISTRY, get_app

        assert get_app("s3d") is APP_REGISTRY["s3d"]
        with pytest.raises(RegistryError, match="s3d"):
            get_app("does-not-exist")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("x", 1)
        with pytest.raises(ValueError):
            registry.register("x", 2)
        registry["x"] = 2  # deliberate overwrite stays possible
        assert registry["x"] == 2

    def test_registry_decorator_form(self):
        registry = Registry("thing")

        @registry.register("fn")
        def fn():
            return 7

        assert registry["fn"] is fn

    def test_registry_error_message_is_not_repr_quoted(self):
        """RegistryError inherits KeyError; it must not inherit
        KeyError's repr-the-argument __str__."""
        registry = Registry("widget", {"a": 1})
        with pytest.raises(RegistryError) as excinfo:
            registry["zzz"]
        assert str(excinfo.value) == "unknown widget 'zzz'; known: ['a']"


class TestSessionStatsSurface:
    def test_matches_hand_computed_values(self, app_streams):
        """The structured surface reports exactly what
        experiments/multi_tenant.py used to dig out of internals."""
        stream = app_streams["jacobi"]
        service = ApopheniaService(FAST_CONFIG)
        with open_session("jacobi", backend=service) as session:
            _drive_session(session, stream)
            stats = session.stats()
            handle = session.handle
            # Replayer-side counters == the replayer's own attributes.
            replayer = handle.processor.replayer
            assert stats.tasks_seen == replayer.tasks_seen
            assert stats.traces_fired == replayer.traces_fired
            assert stats.pointer_collapses == replayer.engine.pointer_collapses
            assert stats.active_pointer_peak == \
                replayer.engine.active_pointer_peak
            assert stats.hysteresis_suppressed == \
                replayer.policy.hysteresis_suppressed
            # Executor-side counters == the per-lane internals.
            assert stats.memo_hits == handle.lane.memo_hits
            assert stats.jobs_submitted == handle.lane.jobs_submitted
            assert stats.tokens_analyzed == handle.lane.tokens_analyzed
            assert stats.sessions_evicted == service.sessions_evicted == 0
            assert stats.backend == "service"
            assert stats.session_id == "jacobi"
            assert 0.0 <= stats.memo_hit_rate <= 1.0
            assert stats.replay_fraction == pytest.approx(
                stats.tasks_traced / stats.tasks_seen
            )

    def test_standalone_and_service_replayer_counters_agree(self, app_streams):
        stream = app_streams["stencil"]
        with open_session(
            "a", config=FAST_CONFIG, runtime=_fast_runtime()
        ) as solo:
            _drive_session(solo, stream)
            solo_stats = solo.stats()
        service = ApopheniaService(FAST_CONFIG)
        with open_session("a", backend=service) as served:
            _drive_session(served, stream)
            served_stats = served.stats()
        assert solo_stats.replayer_counters() == \
            served_stats.replayer_counters()
        assert solo_stats.backend == "standalone"

    def test_collect_from_bare_processor(self):
        processor = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
        for i in range(20):
            processor.execute_task(Task(f"T{i % 2}"))
        stats = collect_session_stats(processor)
        assert stats.backend == "standalone"
        assert stats.tasks_seen == 20
        assert stats.jobs_submitted == processor.executor.jobs_submitted


class TestEvictionFlushOrdering:
    def test_evicted_sessions_buffered_tasks_flush_in_stream_order(self):
        """Eviction must drain the victim's replayer buffer to its own
        runtime, in submission order, before the handle closes."""
        service = ApopheniaService(FAST_CONFIG.with_overrides(max_sessions=1))
        # Its own runtime: a pool-built one keeps no task log.
        victim = open_session(
            "victim", backend=service,
            runtime=Runtime(analysis_mode="fast", mismatch_policy="fallback"),
        )
        tasks = [Task(f"T{i % 3}") for i in range(100)]
        for task in tasks:
            victim.submit(task)
        runtime = victim.runtime
        # The periodic stream keeps potential matches alive, so some
        # tasks must still be buffered (otherwise the test is vacuous);
        # the task log records only tasks actually forwarded.
        assert len(runtime.task_log) < len(tasks)

        usurper = open_session("usurper", backend=service)  # evicts victim
        assert victim.handle.closed
        assert service.sessions_evicted == 1
        # Every buffered task reached the victim's runtime...
        assert len(runtime.task_log) == len(tasks)
        # ...in exactly the order the tenant submitted them.
        assert [r.uid for r in runtime.task_log] == [t.uid for t in tasks]
        victim.close()
        usurper.close()


class TestSizeAwareMemoAdmission:
    """The memo's admission rules, on the LRU it fronts: an entry costs
    its window length; ``_insert`` stores one as ``mine`` does."""

    def _window(self, tag, n):
        return [(tag, i % 4) for i in range(n)]

    @staticmethod
    def _key(window):
        return (tuple(window), 2)

    def _insert(self, memo, window):
        memo.put(self._key(window), (), len(window))

    def _held(self, memo, window):
        return memo.get(self._key(window)) is not None

    def test_oversized_window_not_admitted(self):
        memo = MiningMemo(capacity=8, token_budget=10)
        big = self._window("big", 12)
        result, hit = memo.mine(big, 2, lambda tokens, min_length: [])
        assert result == [] and not hit
        assert len(memo) == 0
        assert memo.tokens_held == 0
        assert memo.put(self._key(big), (), len(big)) is False

    def test_big_window_cannot_displace_many_small_entries(self):
        memo = MiningMemo(capacity=8, token_budget=12)
        smalls = [self._window(f"s{i}", 3) for i in range(4)]
        for window in smalls:
            self._insert(memo, window)
        assert memo.tokens_held == 12 and len(memo) == 4
        # The regression this knob exists for: pre-budget, one giant
        # window would displace the whole working set.
        self._insert(memo, self._window("big", 5000))
        assert len(memo) == 4
        for window in smalls:
            assert self._held(memo, window)

    def test_token_weighted_lru_evicts_until_budget_fits(self):
        memo = MiningMemo(capacity=8, token_budget=10)
        a, b, c = (self._window(t, 4) for t in "abc")
        self._insert(memo, a)
        self._insert(memo, b)
        self._held(memo, a)  # a is now most recently used
        self._insert(memo, c)  # 12 > 10: evict LRU (b)
        assert memo.tokens_held == 8
        assert not self._held(memo, b)
        assert self._held(memo, a)
        assert len(memo) == 2

    def test_reinsert_same_key_does_not_leak_held_tokens(self):
        memo = MiningMemo(capacity=8, token_budget=10)
        a = self._window("a", 4)
        self._insert(memo, a)
        self._insert(memo, a)  # replace, not accumulate
        assert memo.tokens_held == 4
        # The accounting stays exact, so budget eviction cannot underflow.
        self._insert(memo, self._window("b", 6))
        assert memo.tokens_held == 10 and len(memo) == 2

    def test_reinsert_refreshes_lru_position(self):
        memo = MiningMemo(capacity=8, token_budget=8)
        a = self._window("a", 3)
        b = self._window("b", 3)
        self._insert(memo, a)
        self._insert(memo, b)
        self._insert(memo, a)  # refresh: a is now the hottest entry
        self._insert(memo, self._window("c", 3))  # over budget
        assert not self._held(memo, b)  # the genuinely cold entry went
        assert self._held(memo, a)

    def test_entry_count_lru_unchanged_without_budget(self):
        memo = MiningMemo(capacity=2)
        for tag in "abc":
            self._insert(memo, self._window(tag, 4))
        assert len(memo) == 2 and not self._held(memo, self._window("a", 4))
        assert memo.token_budget is None

    def test_budget_plumbs_from_config_to_shared_memo(self):
        config = FAST_CONFIG.with_overrides(shared_memo_token_budget=4096)
        service = ApopheniaService(config)
        assert service.executor.memo.token_budget == 4096
        assert "memo_tokens_held" in service.backend_stats

    def test_token_budget_decision_neutral(self, app_streams):
        """A session served under an aggressive shared-memo token budget
        must still decide byte-identically to a direct standalone run."""
        stream = app_streams["cfd"]
        baseline = _drive_direct(stream)
        config = FAST_CONFIG.with_overrides(shared_memo_token_budget=64)
        service = ApopheniaService(config)
        memo = service.executor.memo
        puts, put = [], memo.put
        memo.put = lambda *args: puts.append(args) or put(*args)
        with open_session("cfd", backend=service) as session:
            throttled = _drive_session(session, stream)
        assert throttled.decisions == baseline.decisions
        assert memo.token_budget == 64
        # The tight budget actually engaged: the memo puts only on a miss,
        # so it holds fewer windows than it was handed only if it evicted
        # or refused some, and the parity above exercised the size-aware
        # admission path.
        assert len(memo) < len(puts)
        assert memo.tokens_held <= 64


class TestDeprecationShims:
    def test_repro_deprecations_escalate_to_errors(self):
        """The gate itself (``filterwarnings`` in ``pytest.ini``): a
        repro-prefixed DeprecationWarning raised outside a catching
        context must fail the suite. No shim ships today; the gate stays
        so the next one cannot be called from in-repo code."""
        import warnings

        with pytest.raises(DeprecationWarning):
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "error", message=r"^repro\b", category=DeprecationWarning
                )
                warnings.warn(
                    "repro: old_constructor() is deprecated",
                    DeprecationWarning,
                )
