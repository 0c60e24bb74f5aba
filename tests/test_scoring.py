"""The trace selection scoring function (Section 4.3)."""

import math

import pytest

from repro.core.scoring import ScoringPolicy
from repro.core.trie import CandidateTrie, CompletedMatch


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
