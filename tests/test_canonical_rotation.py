"""Booth's canonical rotation (candidate cycle deduplication)."""

import os

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.candidates as candidates
from repro.core.repeats import canonical_rotation
from repro.trace import TraceDocument, TraceReplayHarness
from repro.trace.corpus import corpus_path

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


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


class TestRotationKeyOnCandidate:
    """Booth's algorithm is O(L) pure Python: the store runs it when a
    token tuple is first offered and keeps the key on the candidate."""

    def test_directly_inserted_candidate_falls_back_to_computing(self):
        from repro.core.replayer import TraceReplayer

        r = TraceReplayer(on_flush=lambda ts: None,
                          on_trace=lambda c, i, ts: None,
                          min_trace_length=2)
        outsider = r.engine.insert("cab")  # never went through the store
        assert outsider.rotation_key is None
        assert r.store.cycle_members(outsider) == (outsider,)
        assert outsider.rotation_key == (3, tuple("abc"))

    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("fixture", ["s3d", "generative-adversarial"])
    def test_corpus_redrive_computes_one_key_per_offered_tuple(
            self, fixture, monkeypatch):
        computed, offered, stores = [], set(), []
        ingest = candidates.CandidateStore.ingest

        def counting(tokens):
            computed.append(tuple(tokens))
            return canonical_rotation(tokens)

        def recording(store, repeats, now_index):
            repeats = list(repeats)
            offered.update(
                tuple(r.tokens) for r in repeats
                if r.length >= store.min_trace_length
            )
            if store not in stores:
                stores.append(store)
            return ingest(store, repeats, now_index)

        monkeypatch.setattr(candidates, "canonical_rotation", counting)
        monkeypatch.setattr(candidates.CandidateStore, "ingest", recording)
        document = TraceDocument.load(corpus_path(CORPUS_DIR, fixture))
        assert TraceReplayHarness(document, backend="standalone").run().matched
        assert offered and len(computed) <= len(offered)
        assert len(computed) == len(set(computed))  # no tuple twice
        for store in stores:
            assert store.by_rotation
            for key, (members, _total) in store.by_rotation.items():
                for member in members:
                    assert member.rotation_key == key == (
                        member.length, canonical_rotation(member.tokens)
                    )
