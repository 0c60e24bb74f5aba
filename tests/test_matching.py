"""Match-engine parity: the deduplicated automaton vs the scan reference.

The load-bearing property of the serving-path refactor: both match
engines produce byte-identical matching behaviour — completed matches,
flush bounds, live-pointer enumeration — so the tbegin/tend decision
stream stays a pure function of tokens + ingested candidates whichever
engine serves it (Section 5.1's distributed-agreement argument). The
scan engine is the seed semantics; these suites drive both engines in
lockstep through randomized streams with mid-stream ingests, resets,
and the replayer's reset-then-reprocess-old-indices pattern,
and through the real application streams. The scan reference is reached
the only way it can be: by passing the class itself as the replayer's /
processor's ``match_engine`` constructor argument.
"""

import random

import pytest

from repro.api import SessionSnapshot
from references import ScanMatchEngine
from repro.core.matching import AutomatonMatchEngine
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.core.repeats import Repeat
from repro.core.replayer import TraceReplayer
from repro.metrics import owned_by
from repro.runtime.runtime import Runtime

#: The implementation and its reference, as the two classes.
ENGINES = (AutomatonMatchEngine, ScanMatchEngine)


def match_keys(matches):
    return [
        (m.candidate.tokens, m.start_index, m.end_index) for m in matches
    ]


class EnginePair:
    """Drives scan + automaton in lockstep, asserting equal behaviour."""

    def __init__(self):
        self.scan = ScanMatchEngine()
        self.automaton = AutomatonMatchEngine()

    def insert(self, tokens):
        a = self.scan.insert(tokens)
        b = self.automaton.insert(tokens)
        assert a.tokens == b.tokens

    def reset(self):
        self.scan.reset()
        self.automaton.reset()

    def advance(self, token, index, context=""):
        got_scan = match_keys(self.scan.advance(token, index))
        got_auto = match_keys(self.automaton.advance(token, index))
        assert got_scan == got_auto, (context, index, got_scan, got_auto)
        assert (self.scan.earliest_active_start()
                == self.automaton.earliest_active_start()), (context, index)
        pointers_scan = [(s, n.depth) for s, n in self.scan.pointers()]
        pointers_auto = [(s, n.depth) for s, n in self.automaton.pointers()]
        assert pointers_scan == pointers_auto, (context, index)


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_streams_with_ingests_removals_resets(self, seed):
        rng = random.Random(seed)
        pair = EnginePair()
        for index in range(300):
            roll = rng.random()
            if roll < 0.06:
                if len(pair.scan) < 12:
                    pair.insert(tuple(
                        rng.randrange(3) for _ in range(rng.randint(1, 8))
                    ))
            elif roll < 0.08:
                pair.reset()
            pair.advance(rng.randrange(3), index, context=f"seed={seed}")

    @pytest.mark.parametrize("seed", range(20))
    def test_reset_then_reprocess_old_indices(self, seed):
        """The replayer's _fire pattern: pointers reset, then the pending
        tail re-advances under its *original* stream indices, possibly
        with fresh candidates ingested mid-tail. Liveness bookkeeping
        keyed naively on stream indices would refuse those respawns."""
        rng = random.Random(seed)
        pair = EnginePair()
        for tokens in [(0, 1), (0, 1, 2, 0), (1, 2), (2, 2, 1)]:
            pair.insert(tokens)
        index = 0
        for _ in range(20):
            for _ in range(rng.randint(1, 10)):
                pair.advance(rng.randrange(3), index)
                index += 1
            pair.reset()
            for old in range(index - rng.randint(0, 5), index):
                if rng.random() < 0.3:
                    pair.insert(tuple(
                        rng.randrange(3) for _ in range(rng.randint(1, 5))
                    ))
                pair.advance(rng.randrange(3), old)

    def test_no_resurrection_across_ingest(self):
        """A suffix that failed under the trie-as-it-was must stay dead
        even when a later ingest makes its path valid again."""
        engine = AutomatonMatchEngine()
        engine.insert((7, 8, 9))
        # 'ab' is no trie path yet: these tokens spawn nothing.
        engine.advance("a", 0)
        engine.advance("b", 1)
        # Now 'abc' becomes a candidate. The dead 'ab' suffix must not
        # resurrect: no match may complete at index 2 (the scan engine
        # dropped those pointers when they failed to spawn).
        engine.insert(("a", "b", "c"))
        assert engine.advance("c", 2) == []
        # A fresh occurrence after the ingest matches normally.
        engine.advance("a", 3)
        engine.advance("b", 4)
        (match,) = engine.advance("c", 5)
        assert match.start_index == 3


class TestReplayerLevelParity:
    """Full TraceReplayer decisions must match across engines."""

    def drive(self, engine, events):
        fired = []
        replayer = TraceReplayer(
            on_flush=lambda tasks: None,
            on_trace=lambda c, i, tasks: fired.append(
                (c.tokens, i, len(tasks))
            ),
            min_trace_length=2,
            match_engine=engine,
        )
        for kind, payload in events:
            if kind == "ingest":
                replayer.ingest(payload)
            else:
                replayer.process(None, payload)
        replayer.flush_all()
        return fired, replayer

    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_decision_streams(self, seed):
        rng = random.Random(1000 + seed)
        events = []
        for _ in range(400):
            if rng.random() < 0.04:
                length = rng.randint(2, 10)
                tokens = tuple(
                    rng.randrange(4) for _ in range(length)
                )
                events.append(
                    ("ingest", [Repeat(tokens, [0, length])])
                )
            events.append(("token", rng.randrange(4)))
        self.assert_same_decisions(events)

    def assert_same_decisions(self, events):
        """Drive both engines; returns the ``(automaton, scan)``
        replayers."""
        fired_auto, auto = self.drive(AutomatonMatchEngine, events)
        fired_scan, scan = self.drive(ScanMatchEngine, events)
        assert fired_auto == fired_scan
        assert [getattr(auto, name) for name in owned_by("replayer")] == \
            [getattr(scan, name) for name in owned_by("replayer")]
        return auto, scan

    def test_periodic_stream_with_rotations(self):
        events = [("ingest", [Repeat(("a", "b", "c", "d") * 3, [0, 12]),
                              Repeat(("c", "d", "a", "b") * 2, [0, 8])])]
        events += [("token", t) for t in ("a", "b", "c", "d") * 40]
        self.assert_same_decisions(events)

    def test_periodic_ladder_dedup_engages(self):
        """The pathological pointer-ladder workload: one 8-token cycle,
        eight candidates spanning 4 to 24 periods at assorted phase
        shifts, as successive full-buffer minings of a periodic stream
        surface them. Every phase of every multiple keeps a pointer
        alive in the scan reference (~40 deep); the automaton holds the
        same live set -- equal peak -- but walks one state per token, so
        it must report collapsed walks where the reference reports none."""
        period = 8

        def unit(shift):
            return [(i + shift) % period for i in range(period)]

        repeats = []
        for mult, shift in [(4, 0), (6, 4), (8, 0), (10, 4), (12, 0),
                            (16, 4), (20, 0), (24, 4)]:
            tokens = tuple(unit(shift) * mult)
            repeats.append(Repeat(tokens, [0, len(tokens)]))
        events = [("ingest", repeats)]
        events += [("token", t) for t in unit(0) * (6000 // period)]
        automaton, scan = self.assert_same_decisions(events)
        automaton, scan = automaton.engine, scan.engine
        assert automaton.pointer_collapses > 0
        assert scan.pointer_collapses == 0
        assert automaton.active_pointer_peak == scan.active_pointer_peak > 1


class TestProcessorLevelParity:
    """The acceptance property: per app, the engine never changes the
    tbegin/tend decision stream (hysteresis off => exact parity with the
    seed scan matcher)."""

    @pytest.mark.parametrize("app_name", ("s3d", "stencil", "jacobi", "cfd"))
    def test_app_decision_streams_identical(self, app_name):
        from repro.apps.base import capture_stream

        stream = capture_stream(app_name, 700, task_scale=0.05)
        snapshots = {}
        stats = {}
        config = ApopheniaConfig(
            min_trace_length=3,
            batchsize=200,
            multi_scale_factor=25,
            job_base_latency_ops=10,
            initial_ingest_margin_ops=20,
        )
        for engine in ENGINES:
            runtime = Runtime(analysis_mode="fast",
                              mismatch_policy="fallback",
                              keep_task_log=False)
            processor = ApopheniaProcessor(runtime, config,
                                           match_engine=engine)
            for iteration, task in stream:
                processor.set_iteration(iteration)
                processor.execute_task(task)
            processor.flush()
            snapshots[engine.name] = SessionSnapshot.of(processor)
            stats[engine.name] = processor.replayer.engine
        assert snapshots["automaton"] == snapshots["scan"]
        assert (snapshots["automaton"].stable_digest()
                == snapshots["scan"].stable_digest())
        # traces actually fired
        assert snapshots["automaton"].decision_trace, app_name
        assert stats["scan"].pointer_collapses == 0
        if app_name != "cfd":
            # The dedup must actually engage on these periodic streams
            # (cfd's stream at this scale never builds a pointer ladder).
            assert stats["automaton"].pointer_collapses > 0
            assert stats["scan"].active_pointer_peak > 1


class TestEngineSurface:
    def test_factory_callable(self):
        """``match_engine`` is a no-argument factory: the automaton by
        default, anything engine-shaped a test injects otherwise."""
        def replayer(**kwargs):
            return TraceReplayer(on_flush=lambda tasks: None,
                                 on_trace=lambda c, i, tasks: None, **kwargs)

        assert isinstance(replayer().engine, AutomatonMatchEngine)
        built = []

        def factory():
            built.append(ScanMatchEngine())
            return built[-1]

        assert [replayer(match_engine=factory).engine] == built

    def test_config_validation(self):
        with pytest.raises(ValueError, match="hysteresis"):
            ApopheniaConfig(hysteresis=-1.0).validate()

    def test_direct_trie_mutation_relinks(self):
        """Mutating the trie behind the engine's back (tests do this)
        still yields structurally correct matching after a relink."""
        engine = AutomatonMatchEngine()
        engine.trie.insert("ab")
        assert engine.advance("a", 0) == []
        (match,) = engine.advance("b", 1)
        assert match.candidate.tokens == ("a", "b")
