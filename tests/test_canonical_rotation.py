"""Booth's canonical rotation (candidate cycle deduplication)."""

from hypothesis import given, settings, strategies as st

from repro.core.repeats import canonical_rotation


def rotations(t):
    t = list(t)
    return [tuple(t[i:] + t[:i]) for i in range(len(t))]


class TestCanonicalRotation:
    def test_trivial(self):
        assert canonical_rotation([]) == ()
        assert canonical_rotation([5]) == (5,)

    def test_known(self):
        assert canonical_rotation("bca") == tuple("abc")
        assert canonical_rotation("baba") == tuple("abab")

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_is_minimal_rotation(self, t):
        assert canonical_rotation(t) == min(rotations(t))

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_rotation_invariant(self, t):
        canon = canonical_rotation(t)
        for rot in rotations(t):
            assert canonical_rotation(list(rot)) == canon

    def test_phase_shifted_cycles_dedup_in_replayer(self):
        """Two rotations of the same cycle reinforce one shared count and
        at most max_phases_per_cycle trie entries."""
        from repro.core.repeats import Repeat
        from repro.core.replayer import TraceReplayer

        r = TraceReplayer(on_flush=lambda ts: None,
                          on_trace=lambda c, i, ts: None,
                          min_trace_length=2)
        r.ingest([Repeat("abcd", [0, 4])])
        r.ingest([Repeat("cdab", [2, 6])])
        r.ingest([Repeat("bcda", [1, 5])])
        r.ingest([Repeat("dabc", [3, 7])])  # 4th phase: not admitted
        assert len(r.trie) == r.store.max_phases_per_cycle
        # Shared count: every admitted phase sees the cycle total (8).
        for cand in r.trie.candidates.values():
            assert cand.occurrences == 8
