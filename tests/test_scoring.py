"""The trace selection scoring function (Section 4.3)."""

import functools
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import references
from repro.apps.base import capture_stream
from repro.core.matching import AutomatonMatchEngine
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.core.scoring import ReplayDecisionPolicy, ScoringPolicy
from repro.core.trie import CandidateTrie, CompletedMatch
from repro.runtime.runtime import Runtime


def candidate(length=10, occurrences=1, last_seen=None, replayed=False):
    trie = CandidateTrie()
    c = trie.insert(tuple(range(length)))
    c.occurrences = occurrences
    c.last_seen_at = last_seen
    c.replayed = replayed
    return c


class TestScore:
    def test_length_times_count(self):
        policy = ScoringPolicy(decay_rate=0.0)
        assert policy.score(candidate(10, 3), 0) == 30

    def test_count_is_capped(self):
        policy = ScoringPolicy(count_cap=16, decay_rate=0.0)
        assert policy.score(candidate(10, 1000), 0) == 160

    def test_decay_by_idleness(self):
        policy = ScoringPolicy(decay_rate=0.01)
        fresh = policy.score(candidate(10, 4, last_seen=100), 100)
        stale = policy.score(candidate(10, 4, last_seen=0), 100)
        assert stale < fresh
        assert math.isclose(stale, fresh * math.exp(-1.0))

    def test_replay_bonus(self):
        policy = ScoringPolicy(decay_rate=0.0, replay_bonus=1.5)
        base = policy.score(candidate(10, 2), 0)
        boosted = policy.score(candidate(10, 2, replayed=True), 0)
        assert math.isclose(boosted, base * 1.5)

    def test_never_seen_has_no_decay(self):
        policy = ScoringPolicy(decay_rate=1.0)
        assert policy.score(candidate(10, 2, last_seen=None), 10**6) == 20

    def test_potential_is_length_dominant(self):
        """Potential scores at the full count cap (optimistic), so a
        strictly longer live candidate always out-potentials a locked-in
        shorter trace's score."""
        policy = ScoringPolicy(decay_rate=0.0, count_cap=16, replay_bonus=1.1)
        short = candidate(420, 1000, replayed=True)  # capped + bonus
        long = candidate(421, 0)
        assert policy.potential(long, 0) > policy.score(short, 0)
        assert policy.potential(long, 0) == 421 * 16 * 1.1

    def test_longer_stale_vs_short_fresh(self):
        """Decay lets a fresh steady-state trace beat a long trace that
        stopped appearing -- the anti-disruption property."""
        policy = ScoringPolicy(decay_rate=1e-2, count_cap=16)
        long_stale = candidate(100, 16, last_seen=0)
        short_fresh = candidate(20, 16, last_seen=2000, replayed=True)
        now = 2000
        assert policy.score(short_fresh, now) > policy.score(long_stale, now)


class TestHysteresis:
    """Realized-replay-share weighting (the scoring churn fix)."""

    def fired(self, length=200, fires=4, gap_tokens=0):
        c = candidate(length, 16, replayed=True)
        c.fires = fires
        c.gap_tokens = gap_tokens
        return c

    def test_realized_share(self):
        policy = ScoringPolicy()
        clean = self.fired(200, fires=4, gap_tokens=0)
        dirty = self.fired(200, fires=4, gap_tokens=200)
        assert policy.realized_share(clean) == 1.0
        assert policy.realized_share(dirty) == pytest.approx(0.8)
        assert policy.realized_share(candidate(200)) == 1.0  # never fired

    def test_off_by_default_and_exact(self):
        policy = ScoringPolicy()  # hysteresis = 0
        dirty = self.fired(gap_tokens=500)
        assert policy.discount(dirty) == 1.0

    def test_discount_applies_to_dirty_candidates_only(self):
        policy = ScoringPolicy(hysteresis=2.0, decay_rate=0.0)
        dirty = self.fired(200, fires=4, gap_tokens=200)  # share 0.8
        clean = self.fired(200, fires=4, gap_tokens=0)
        fresh = candidate(200, 16)
        assert policy.discount(dirty) == pytest.approx(0.8 ** 2)
        assert policy.discount(clean) == 1.0
        # Untried candidates keep the optimistic paper treatment.
        assert policy.discount(fresh) == 1.0

    def test_min_length_gate(self):
        """Short-fragment candidates are never discounted: the churn is
        a full-buffer-scale phenomenon, and inter-fragment noise on
        short-period streams is nobody's fault."""
        policy = ScoringPolicy(hysteresis=2.0, hysteresis_min_length=100)
        short = self.fired(length=9, fires=4, gap_tokens=36)
        long = self.fired(length=100, fires=4, gap_tokens=400)
        assert policy.discount(short) == 1.0
        assert policy.discount(long) < 1.0

    def test_worth_waiting_suppresses_dirty_speculation(self):
        from repro.core.scoring import ReplayDecisionPolicy

        scoring = ScoringPolicy(hysteresis=2.0, decay_rate=0.0)
        policy = ReplayDecisionPolicy(scoring)
        held = self.fired(200, fires=8, gap_tokens=0)  # proven, clean
        dirty = self.fired(210, fires=8, gap_tokens=420)  # share 0.8
        # A pointer 50 tokens into a trie holding the dirty candidate.
        trie = CandidateTrie()
        trie.insert(dirty.tokens)
        node = trie.root
        for token in dirty.tokens[:50]:
            node = trie.child(node, token)
        assert node.depth == 50 and node.kid is not None
        node.deep = dirty
        match = CompletedMatch(held, 0, 200)
        # Raw scoring would wait (210 > 200 at full cap + bonus); the
        # discounted potential loses, and the suppression is counted.
        assert scoring.potential(dirty, 200) > scoring.score(held, 200)
        assert not policy.worth_waiting(match, 200, iter([(10, node)]))
        assert policy.hysteresis_suppressed == 1
        # A clean challenger of the same length still wins the wait.
        node.deep = self.fired(210, fires=8, gap_tokens=0)
        assert policy.worth_waiting(match, 200, iter([(10, node)]))

    def test_beats_defends_incumbent_against_dirty_challenger(self):
        from repro.core.scoring import ReplayDecisionPolicy
        from repro.core.trie import CompletedMatch

        scoring = ScoringPolicy(hysteresis=2.0, decay_rate=0.0)
        policy = ReplayDecisionPolicy(scoring)
        incumbent = CompletedMatch(self.fired(200, 8, 0), 0, 200)
        dirty = CompletedMatch(self.fired(210, 8, 420), 0, 210)
        assert policy.select([dirty], incumbent, 210) is incumbent
        clean = CompletedMatch(self.fired(210, 8, 0), 0, 210)
        assert policy.select([clean], incumbent, 210) is clean


class TestBest:
    def test_best_empty(self):
        assert ScoringPolicy().best([], 0) is None

    def test_best_picks_highest_score(self):
        policy = ScoringPolicy(decay_rate=0.0)
        short = CompletedMatch(candidate(5, 10), 0, 5)
        long = CompletedMatch(candidate(50, 10), 0, 50)
        assert policy.best([short, long], 50) is long

    def test_tie_breaks_to_earlier_start(self):
        policy = ScoringPolicy(decay_rate=0.0)
        c = candidate(5, 4)
        a = CompletedMatch(c, 0, 5)
        b = CompletedMatch(c, 3, 8)
        assert policy.best([a, b], 8) is a


class TestCeiling:
    """The undecayed score bounds the score exactly, so
    ``worth_waiting`` can skip the decay without moving a decision."""

    @given(
        length=st.integers(1, 500),
        occurrences=st.integers(0, 40),
        now=st.integers(0, 10**7),
        seen=st.one_of(st.none(), st.integers(-10**7, 10**7)),
        replayed=st.booleans(),
        decay_rate=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]),
        hysteresis=st.sampled_from([0.0, 1.0, 2.0]),
        fires=st.integers(0, 50),
        gap=st.integers(0, 10**5),
    )
    def test_score_never_exceeds_ceiling(
        self, length, occurrences, now, seen, replayed, decay_rate,
        hysteresis, fires, gap,
    ):
        scoring = ScoringPolicy(decay_rate=decay_rate, hysteresis=hysteresis)
        # ``seen`` is an offset: the last sighting lies before or after now.
        c = candidate(length, occurrences,
                      None if seen is None else now + seen, replayed)
        c.fires, c.gap_tokens = fires, gap
        assert scoring.score(c, now) <= scoring.ceiling(c)
        # ... and a discount never lifts a potential (the other half of
        # the exactness argument).
        assert scoring.discount(c) <= 1.0

    @pytest.mark.parametrize("app_name, num_tasks, hysteresis", [
        ("s3d", 700, 0.0), ("stencil", 700, 0.0), ("jacobi", 700, 0.0),
        ("cfd", 2000, 0.0), ("s3d", 3000, 2.0),
    ])
    def test_worth_waiting_matches_reference_call_by_call(
        self, monkeypatch, app_name, num_tasks, hysteresis
    ):
        """On real streams, every deferral check answers as the
        reference (the decayed threshold computed up front) does, and
        moves ``hysteresis_suppressed`` by the same amount."""
        method = ReplayDecisionPolicy.worth_waiting
        seen = {"calls": 0, "waits": 0, "suppressed": 0}

        def checked(policy, match, now_index, pointers):
            pointers = list(pointers)
            before = policy.hysteresis_suppressed
            want = references.worth_waiting(
                policy, match, now_index, iter(pointers)
            )
            bumped = policy.hysteresis_suppressed - before
            policy.hysteresis_suppressed = before
            got = method(policy, match, now_index, iter(pointers))
            assert got == want
            assert policy.hysteresis_suppressed - before == bumped
            seen["calls"] += 1
            seen["waits"] += got
            seen["suppressed"] += bumped
            return got

        monkeypatch.setattr(ReplayDecisionPolicy, "worth_waiting", checked)
        config = ApopheniaConfig(
            min_trace_length=3,
            batchsize=200,
            multi_scale_factor=25,
            job_base_latency_ops=10,
            initial_ingest_margin_ops=20,
            hysteresis=hysteresis,
        )
        processor = ApopheniaProcessor(
            Runtime(analysis_mode="fast", mismatch_policy="fallback",
                    keep_task_log=False),
            config,
        )
        for iteration, task in capture_stream(app_name, num_tasks,
                                              task_scale=0.05):
            processor.set_iteration(iteration)
            processor.execute_task(task)
        processor.flush()
        # Both answers occur, and the hysteresis stream suppresses.
        assert 0 < seen["waits"] < seen["calls"], seen
        assert (seen["suppressed"] > 0) == (hysteresis > 0), seen


@pytest.mark.perf_smoke
def test_perf_smoke_deferral_checks_skip_the_decay(monkeypatch):
    """Count guard, no clock: on the ``steady_s3d`` ``--quick`` stream
    (seed 1) of ``bench/``, the serving path scores a candidate on at
    most 0.3 of the match engine's advances (0.845 when every deferral
    check paid for the held match's decayed score; 0.157 with the
    ceiling). The advance count pins the stream itself."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "bench")
    )
    from run import plain_loop
    from workloads import (
        WORKLOADS, Deployment, build_schedule, build_templates,
    )

    counts = {"score": 0, "advance": 0}

    def counted(name, function):
        @functools.wraps(function)
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(ScoringPolicy, "score",
                        counted("score", ScoringPolicy.score))
    monkeypatch.setattr(AutomatonMatchEngine, "advance",
                        counted("advance", AutomatonMatchEngine.advance))
    workload = WORKLOADS["steady_s3d"].quick()
    deployment = Deployment(workload)
    plain_loop(deployment,
               build_schedule(workload, build_templates(workload, 1)))
    deployment.close()
    assert counts["advance"] == 3143
    assert counts["score"] <= 0.3 * counts["advance"], counts
