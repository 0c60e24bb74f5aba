"""Suffix array and LCP array construction.

Algorithm 2 of the paper is built on a suffix array and the Kasai et al.
longest-common-prefix array [23]. These are the list-based entry points:
construction is SA-IS
(:func:`repro.core.sa_backends.suffix_array_sais`); the ``backend``
argument of the functions below exists so the property tests can pass
the reference construction (``suffix_array_doubling`` in
``tests/references.py``) instead. Long
windows get the same two arrays from
:mod:`repro.core.sa_backends.multiplying` on ``int64`` buffers, over the
same :func:`rank_compress` output -- so the alphabet order, and with it
the suffix array, is the one these functions see.

The input is any sequence of hashable tokens (ints, strings, or task
hashes); tokens are rank-compressed first so the construction only ever
works on dense small integers. The rank-compression contract: compress
*once* per mining job and pass the compressed array through the
``*_from_ranks`` entry points -- :func:`rank_compress` is idempotent, but
each redundant pass is a full O(n) dict walk on the hot path. The public
:func:`suffix_array`/:func:`lcp_array` wrappers compress internally for
callers that hold raw tokens.
"""

from repro.core.sa_backends import suffix_array_sais


def rank_compress(tokens):
    """Map arbitrary hashable tokens to dense integer ranks.

    Returns a list of ints preserving the relative order of first
    appearance (ordering between distinct tokens is arbitrary but fixed,
    which is all the suffix array needs). Idempotent: compressing an
    already-compressed array returns an equal array.
    """
    mapping = {}
    out = []
    for tok in tokens:
        rank = mapping.get(tok)
        if rank is None:
            rank = len(mapping)
            mapping[tok] = rank
        out.append(rank)
    return out


def suffix_array_from_ranks(ranks, backend=suffix_array_sais):
    """Suffix array of an already rank-compressed token array.

    ``backend`` is the ``build(ranks)`` construction callable.
    """
    return backend(ranks)


def suffix_array(tokens, backend=suffix_array_sais):
    """Return the suffix array of ``tokens`` as a list of start indices.

    The suffix array lists the starting positions of all suffixes of the
    input in lexicographic order. Tokens may be any hashable values; they
    are compared by an arbitrary but consistent order (rank of first
    appearance), which preserves all equal/unequal relations and therefore
    all repeated-substring structure.
    """
    return suffix_array_from_ranks(rank_compress(tokens), backend)


def inverse_suffix_array(sa):
    """``rank[start]`` = index of the suffix starting at ``start`` in
    ``sa``. Kasai and the candidate order of ``find_repeats`` both read
    it; a caller needing both builds it once and passes it on."""
    rank = [0] * len(sa)
    for i, start in enumerate(sa):
        rank[start] = i
    return rank


def lcp_array_from_ranks(ranks, sa, rank=None):
    """Kasai's algorithm over an already rank-compressed token array.

    ``rank`` is ``inverse_suffix_array(sa)`` when the caller already
    holds it.
    """
    s = ranks
    n = len(s)
    if n <= 1:
        return []
    if rank is None:
        rank = inverse_suffix_array(sa)
    lcp = [0] * (n - 1)
    h = 0
    for i in range(n):
        if rank[i] > 0:
            j = sa[rank[i] - 1]
            while i + h < n and j + h < n and s[i + h] == s[j + h]:
                h += 1
            lcp[rank[i] - 1] = h
            if h > 0:
                h -= 1
        else:
            h = 0
    return lcp


def lcp_array(tokens, sa=None, backend=suffix_array_sais):
    """Kasai's algorithm: LCP of adjacent suffix-array entries.

    ``lcp[i]`` is the length of the longest common prefix of the suffixes
    starting at ``sa[i]`` and ``sa[i+1]``. The returned list has length
    ``len(tokens) - 1`` (empty input yields an empty list).
    """
    ranks = rank_compress(tokens)
    if sa is None:
        sa = suffix_array_from_ranks(ranks, backend)
    return lcp_array_from_ranks(ranks, sa)
