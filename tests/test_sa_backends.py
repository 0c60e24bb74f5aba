"""Suffix-array construction: SA-IS against its references.

Determinism is load-bearing: the Section 5.1 agreement protocol assumes
every node computes identical mining results, so SA-IS (the
implementation) and the seed's prefix doubling (kept as the reference)
must agree byte-for-byte -- with each other, with a naive O(n^2 log n)
oracle, and through ``find_repeats``. The reference is reached by
passing the function itself as ``backend=``; there is no name, config
field or environment variable that selects it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.repeats import find_repeats
from repro.core.sa_backends import suffix_array_doubling, suffix_array_sais
from repro.core.suffix_array import (
    lcp_array_from_ranks,
    rank_compress,
    suffix_array_from_ranks,
)

#: The implementation first, then its reference.
BACKENDS = {"sais": suffix_array_sais, "doubling": suffix_array_doubling}
ALL_BACKENDS = sorted(BACKENDS)


def naive_suffix_array(ranks):
    return sorted(range(len(ranks)), key=lambda i: ranks[i:])


def naive_lcp(ranks, sa):
    out = []
    for a, b in zip(sa, sa[1:]):
        n = 0
        while a + n < len(ranks) and b + n < len(ranks) and ranks[a + n] == ranks[b + n]:
            n += 1
        out.append(n)
    return out


def assert_all_backends_match_oracle(tokens):
    ranks = rank_compress(tokens)
    want_sa = naive_suffix_array(ranks)
    want_lcp = naive_lcp(ranks, want_sa)
    for name in ALL_BACKENDS:
        sa = suffix_array_from_ranks(ranks, BACKENDS[name])
        assert sa == want_sa, f"{name} suffix array diverged on {tokens!r}"
        assert lcp_array_from_ranks(ranks, sa) == want_lcp


class TestBackendsAgainstOracle:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty(self, backend):
        assert suffix_array_from_ranks([], BACKENDS[backend]) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_single(self, backend):
        assert suffix_array_from_ranks([0], BACKENDS[backend]) == [0]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_two_tokens(self, backend):
        build = BACKENDS[backend]
        assert suffix_array_from_ranks([0, 1], build) == [0, 1]
        assert suffix_array_from_ranks([1, 0], build) == [1, 0]
        assert suffix_array_from_ranks([0, 0], build) == [1, 0]

    def test_paper_string(self):
        # Figure 4's example string, fixed expected output.
        ranks = rank_compress("aabcbcbaa")
        for name in ALL_BACKENDS:
            assert suffix_array_from_ranks(ranks, BACKENDS[name]) == [
                8, 7, 0, 1, 6, 4, 2, 5, 3,
            ]

    def test_all_equal(self):
        assert_all_backends_match_oracle([7] * 64)

    def test_periodic(self):
        for period in (1, 2, 3, 5, 13):
            base = list(range(period))
            assert_all_backends_match_oracle((base * 20)[:61])

    def test_distinct(self):
        assert_all_backends_match_oracle(list(range(40)))

    @given(st.lists(st.integers(0, 4), max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_random_small_alphabet(self, s):
        assert_all_backends_match_oracle(s)

    @given(st.text(alphabet="ab", max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_random_binary_text(self, s):
        assert_all_backends_match_oracle(list(s))

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=8),
        st.integers(2, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_periodic(self, base, reps):
        assert_all_backends_match_oracle(base * reps)


class TestFindRepeatsEquivalence:
    @given(st.lists(st.integers(0, 3), max_size=70))
    @settings(max_examples=100, deadline=None)
    def test_identical_repeats_across_backends(self, s):
        results = [
            find_repeats(s, min_length=1, backend=BACKENDS[name])
            for name in ALL_BACKENDS
        ]
        assert all(r == results[0] for r in results[1:])

    def test_figure4_output_on_every_backend(self):
        for name in ALL_BACKENDS:
            repeats = find_repeats("aabcbcbaa", backend=BACKENDS[name])
            assert {r.tokens for r in repeats} == {("a", "a"), ("b", "c")}


class TestEnvPrecedenceThroughConfig:
    """An explicit config is authoritative: no environment variable
    layers onto it."""

    def test_explicit_config_pins_other_knobs(self, monkeypatch):
        from repro.api import build_config
        from repro.core.processor import ApopheniaConfig

        monkeypatch.setenv("REPRO_BATCHSIZE", "77")
        cfg = build_config(config=ApopheniaConfig(batchsize=500))
        assert cfg.batchsize == 500


@pytest.mark.perf_smoke
def test_perf_smoke_backend_equivalence_2k_window():
    """Tier-1-safe regression gate: every backend mines an identical
    result on a realistic 2k-token window (periodic loop bodies broken up
    by unique per-iteration tokens), so a broken backend fails fast here
    without running the full perf suite."""
    body = [f"task{i}" for i in range(40)]
    tokens = []
    rep = 0
    while len(tokens) < 2000:
        tokens.extend(body)
        tokens.append(f"check{rep}")
        rep += 1
    tokens = tokens[:2000]
    results = {
        name: find_repeats(tokens, min_length=10, backend=BACKENDS[name])
        for name in ALL_BACKENDS
    }
    reference = results["sais"]
    assert reference, "smoke window unexpectedly mined no repeats"
    for name, repeats in results.items():
        assert repeats == reference, f"{name} diverged on the smoke window"
