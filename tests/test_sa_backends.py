"""Suffix-array construction: the two implementations against their references.

Determinism is load-bearing: the Section 5.1 agreement protocol assumes
every node computes identical mining results, so SA-IS (short windows),
NumPy prefix multiplying (long windows) and the seed's prefix doubling
(kept as the reference) must agree byte-for-byte -- with each other, with
a naive O(n^2 log n) oracle, and through ``find_repeats``, whose scalar
and vectorised pipelines must return the same ``Repeat`` lists. A scalar
construction is reached by passing the function itself as ``backend=``;
there is no name, config field or environment variable that selects one.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import repeats as repeats_module
from repro.core.repeats import (
    VECTOR_CUTOVER,
    _select_scalar,
    _select_vectorised,
    find_repeats,
)
from references import suffix_array_doubling
from repro.core.sa_backends import (
    multiplying,
    suffix_array_multiplying,
    suffix_array_sais,
)
from repro.core.suffix_array import (
    inverse_suffix_array,
    lcp_array,
    lcp_array_from_ranks,
    rank_compress,
    suffix_array,
    suffix_array_from_ranks,
)
from repro.trace.format import TraceDocument

#: The implementations first, then their reference.
BACKENDS = {
    "sais": suffix_array_sais,
    "multiplying": suffix_array_multiplying,
    "doubling": suffix_array_doubling,
}
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


# ----------------------------------------------------------------------
# The vectorised pipeline against the scalar one
# ----------------------------------------------------------------------
#: How a drawn integer becomes a token: small ints, strings, tuples, and
#: the unsigned 64-bit range BLAKE2b task hashes live in (>= 2**63 does
#: not fit ``int64``, so only ranks may ever enter an array).
DRESSINGS = {
    "int": lambda v: v,
    "str": lambda v: f"task{v}",
    "tuple": lambda v: ("T", v % 7, v),
    "u64": lambda v: (1 << 64) - 1 - v * 0x9E3779B97F4A7C15 % (1 << 63),
}


@st.composite
def windows(draw, min_size=2, max_size=2 * VECTOR_CUTOVER):
    """Token windows of the shapes mining sees: random over a small or a
    large (> 255) alphabet, periodic, periodic with one break, a single
    symbol, all distinct."""
    n = draw(st.integers(min_size, max_size))
    kind = draw(st.sampled_from(
        ["random", "periodic", "broken", "single", "distinct"]
    ))
    if kind == "random":
        top = draw(st.sampled_from([1, 3, 40, 700]))
        tokens = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    elif kind == "single":
        tokens = [5] * n
    elif kind == "distinct":
        tokens = list(range(n))
    else:
        body = draw(st.lists(st.integers(0, 300), min_size=1, max_size=24))
        tokens = (body * (n // len(body) + 1))[:n]
        if kind == "broken":
            tokens[draw(st.integers(0, n - 1))] = 10_000
    dress = DRESSINGS[draw(st.sampled_from(sorted(DRESSINGS)))]
    return [dress(v) for v in tokens]


def window_min_lengths(tokens):
    return st.sampled_from([1, 5, len(tokens), len(tokens) + 1])


def periodic_window(size=5000, period=250):
    """A task-history window in steady state: one loop body over and
    over, so the longest common prefix is ``size - period``."""
    return [f"task{i % period}" for i in range(size)]


def smoke_window(size=2000):
    """Periodic loop bodies broken up by unique per-iteration tokens."""
    body = [f"task{i}" for i in range(40)]
    tokens = []
    rep = 0
    while len(tokens) < size:
        tokens.extend(body)
        tokens.append(f"check{rep}")
        rep += 1
    return tokens[:size]


needs_numpy = pytest.mark.skipif(
    multiplying.np is None, reason="numpy is not importable"
)


@needs_numpy
class TestMultiplyingLevels:
    """Suffix array and LCP of the NumPy construction against the naive
    oracle, at sizes the SA-IS property tests above never reach."""

    @given(windows())
    @settings(max_examples=120, deadline=None)
    def test_suffix_array_and_lcp_match_oracle(self, tokens):
        ranks = rank_compress(tokens)
        want_sa = naive_suffix_array(ranks)
        sa, inverse, levels = multiplying.suffix_levels(ranks)
        assert sa.tolist() == want_sa
        assert inverse[sa].tolist() == list(range(len(ranks)))
        assert multiplying.lcp_from_levels(sa, levels).tolist() == naive_lcp(
            ranks, want_sa
        )

    def test_periodic_window_in_few_sort_rounds(self):
        """The count that makes the construction cheap, in place of a
        wall-clock ratio: the longest common prefix here is 4750 tokens,
        which doubling reaches in 13 sort rounds and multiplying must
        reach in at most 6 -- with SA-IS's suffix array and Kasai's LCP."""
        ranks = rank_compress(periodic_window())
        sa, _, levels = multiplying.suffix_levels(ranks)
        assert len(levels) <= 6
        spans = [span for _, span, _, _ in levels]
        assert spans[0] == 1 and spans[-1] * levels[-1][3] > 4750
        assert sa.tolist() == suffix_array_sais(ranks)
        assert multiplying.lcp_from_levels(sa, levels).tolist() == (
            lcp_array_from_ranks(ranks, sa.tolist())
        )

    def test_keys_stay_inside_the_packing(self):
        for tokens in (periodic_window(600, 7), list(range(600)), [0] * 600):
            _, _, levels = multiplying.suffix_levels(rank_compress(tokens))
            for keys, _, bits, groups in levels:
                assert groups >= 2 and bits * groups <= multiplying.KEY_BITS
                assert 0 <= int(keys.min())
                assert int(keys.max()) < 1 << multiplying.KEY_BITS
                assert int(keys[-1]) == 0  # the past-the-end sentinel


@needs_numpy
class TestVectorisedPipeline:
    """``_select_vectorised`` is ``_select_scalar`` re-expressed: the same
    selection in the same order, and so the same ``Repeat`` lists."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_selection_called_directly(self, data):
        tokens = data.draw(windows())
        min_length = min(data.draw(window_min_lengths(tokens)), len(tokens))
        ranks = rank_compress(tokens)
        assert _select_vectorised(ranks, min_length) == _select_scalar(
            ranks, min_length, suffix_array_sais
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_repeats_either_side_of_the_cutover(self, data):
        """Through the public entry point, with its own dispatch: default
        (vectorised from the cutover up) against ``backend=`` (scalar at
        every size), full ``Repeat`` lists."""
        tokens = data.draw(
            windows(min_size=VECTOR_CUTOVER - 4, max_size=VECTOR_CUTOVER + 40)
        )
        min_length = data.draw(window_min_lengths(tokens))
        min_occurrences = data.draw(st.sampled_from([1, 2]))
        assert find_repeats(tokens, min_length, min_occurrences) == find_repeats(
            tokens, min_length, min_occurrences, backend=suffix_array_sais
        )

    def test_unsigned_64_bit_tokens_come_back_unchanged(self):
        tokens = [(1 << 64) - 1 - (i % 50) for i in range(VECTOR_CUTOVER + 8)]
        repeats = find_repeats(tokens, min_length=5)
        assert repeats and repeats == find_repeats(
            tokens, min_length=5, backend=suffix_array_sais
        )
        for repeat in repeats:
            assert all(type(t) is int and t >= 1 << 63 for t in repeat.tokens)
            assert all(type(p) is int for p in repeat.positions)

    def test_dispatch_follows_the_window_length(self, monkeypatch):
        calls = []
        real = repeats_module._select_vectorised
        monkeypatch.setattr(
            repeats_module, "_select_vectorised",
            lambda s, m: calls.append(len(s)) or real(s, m),
        )
        window = periodic_window(VECTOR_CUTOVER + 1, 9)
        find_repeats(window[: VECTOR_CUTOVER - 1])
        find_repeats(window, backend=suffix_array_sais)
        assert calls == []
        find_repeats(window[:VECTOR_CUTOVER])
        find_repeats(window)
        assert calls == [VECTOR_CUTOVER, VECTOR_CUTOVER + 1]

    def test_window_too_long_for_the_packing_takes_the_scalar_path(
        self, monkeypatch
    ):
        """A round key packs at least two ranks of ``bit_length(n)`` bits
        and the candidate key two fields of that width, so the limit is
        checked, not assumed; past it the result is the scalar one."""
        assert multiplying.MAX_TOKENS.bit_length() * 2 <= multiplying.KEY_BITS
        assert multiplying.available(multiplying.MAX_TOKENS)
        assert not multiplying.available(multiplying.MAX_TOKENS + 1)

        window = periodic_window(600, 40)
        want = find_repeats(window, min_length=5)
        monkeypatch.setattr(multiplying, "MAX_TOKENS", len(window) - 1)

        def refuse(ranks):
            raise AssertionError("over-limit window reached the NumPy path")

        monkeypatch.setattr(multiplying, "suffix_levels", refuse)
        assert find_repeats(window, min_length=5) == want
        assert want == find_repeats(
            window, min_length=5, backend=suffix_array_sais
        )


class TestSharedInverse:
    """``find_repeats`` builds the inverse suffix array once and hands it
    to Kasai; the public wrappers still build their own."""

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_lcp_with_and_without_a_shared_inverse(self, s):
        ranks = rank_compress(s)
        sa = suffix_array(s)
        want = naive_lcp(ranks, sa)
        assert lcp_array(s) == want
        assert lcp_array_from_ranks(ranks, sa) == want
        assert lcp_array_from_ranks(ranks, sa, inverse_suffix_array(sa)) == want


@pytest.mark.perf_smoke
def test_perf_smoke_backend_equivalence_2k_window():
    """Tier-1-safe regression gate: every construction mines an identical
    result on a realistic 2k-token window (periodic loop bodies broken up
    by unique per-iteration tokens), so a broken one fails fast here.

    The reference result is the default call, which at this size is the
    vectorised pipeline; every ``backend=`` call is the scalar pipeline
    on that construction. So default vs ``backend=suffix_array_doubling``
    is vectorised vs scalar-on-the-reference."""
    tokens = smoke_window()
    reference = find_repeats(tokens, min_length=10)
    assert reference, "smoke window unexpectedly mined no repeats"
    for name in ALL_BACKENDS:
        repeats = find_repeats(tokens, min_length=10, backend=BACKENDS[name])
        assert repeats == reference, f"{name} diverged on the smoke window"


_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any later ``import numpy`` raises ImportError
from repro.core.sa_backends import multiplying
assert multiplying.np is None and not multiplying.available(2000)
from repro.core.repeats import find_repeats
from repro.trace.format import TraceDocument
from repro.trace.replay import TraceReplayHarness
tokens, fixture = json.load(sys.stdin)
repeats = find_repeats(tokens, min_length=10)
verdict = TraceReplayHarness(TraceDocument.load(fixture)).run()
print(json.dumps({
    "repeats": [[list(r.tokens), list(r.positions)] for r in repeats],
    "matched": verdict.matched, "digest": verdict.actual_digest,
}))
"""


@pytest.mark.perf_smoke
def test_perf_smoke_without_numpy_mines_and_redrives_identically():
    """The fallback is exercised, not assumed: a process in which
    ``import numpy`` fails mines the smoke window to the result this
    process computes, and re-drives a corpus fixture (whose 200-token
    windows are above the cutover here) to the recorded footer digest."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    fixture = os.path.join(root, "tests", "corpus", "s3d.jsonl")
    tokens = smoke_window()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY],
        input=json.dumps([tokens, fixture]),
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    got = json.loads(out)
    here = find_repeats(tokens, min_length=10)
    assert got["repeats"] == [
        [list(r.tokens), list(r.positions)] for r in here
    ]
    assert got["matched"]
    assert got["digest"] == TraceDocument.load(fixture).footer["decisions_digest"]
