"""Packed prefix multiplying: suffix array and exact LCP on ``int64`` buffers.

The NumPy construction :func:`repro.core.repeats.find_repeats` uses for
windows at or above its cutover. It is prefix *doubling* with a wider
stride. A round holds, for every position, the rank of the ``span``
tokens starting there (0 stands for "past the end", real ranks start at
1) and packs the ranks of ``groups = 62 // bit_length(top rank)``
consecutive spans into one ``int64`` key, so one sort multiplies the
compared prefix by ``groups`` instead of by two. Task-history windows are
periodic with a longest common prefix close to the window length, which
is the worst case for doubling (13 sort rounds on a 5000-token S3D
window); multiplying needs 5. Ties need no stable order: equal keys get
equal ranks, and the construction ends when all ``n`` ranks differ.

Every round's key array is kept (a *level*). The longest common prefix
of two suffixes is then read back top-down: at each level XOR the two
keys at the current offset and count the equal leading rank groups (the
highest set bit of the XOR lies in the first unequal one) -- each equal
group is ``span`` equal tokens, exactly, because a rank is an identity
and not a fingerprint. The first unequal group is resolved one level
down. A suffix that runs off the end meets the 0
sentinel there, so the count stops at the shorter suffix's end by
itself; index ``n`` of every key array is that sentinel.

The suffix array of a string is unique and the LCP of two suffixes is a
fact about the string, so the results equal SA-IS + Kasai element for
element (``tests/test_sa_backends.py`` holds both to the naive oracle).
"""

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the blocked-import test
    np = None

#: Bits of an ``int64`` key the packing may use (sign bit and one spare).
KEY_BITS = 62

#: Longest window the packed keys can hold: a round key needs at least
#: two ranks of ``bit_length(n)`` bits, and the candidate sort key of
#: ``find_repeats`` packs ``(n - length, suffix rank)`` in twice that.
MAX_TOKENS = (1 << (KEY_BITS // 2)) - 1


def available(n):
    """Whether a window of ``n`` tokens can take the NumPy path."""
    return np is not None and n <= MAX_TOKENS


def suffix_levels(ranks):
    """Suffix array, its inverse and the per-round key levels.

    ``ranks`` is a rank-compressed token sequence of at least two tokens
    (dense non-negative ints; never raw tokens, which may not fit
    ``int64``). Returns ``(sa, inverse, levels)``: two ``int64`` arrays of
    length ``n`` and a list of ``(keys, span, bits, groups)``, one per
    sort round, ``keys`` having ``n + 1`` entries.
    """
    n = len(ranks)
    rank = np.fromiter(ranks, dtype=np.int64, count=n)
    rank += 1
    top = int(rank.max())
    span = 1
    levels = []
    while True:
        bits = top.bit_length()
        groups = KEY_BITS // bits
        keys = np.zeros(n + 1, dtype=np.int64)
        body = keys[:n]
        body[:] = rank
        for group in range(1, groups):
            offset = group * span
            if offset >= n:
                # Every remaining group is past the end of every suffix.
                body <<= bits * (groups - group)
                break
            body <<= bits
            body[: n - offset] |= rank[offset:]
        levels.append((keys, span, bits, groups))
        order = np.argsort(body)
        ordered = body[order]
        fresh = np.ones(n, dtype=np.int64)
        np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
        np.cumsum(fresh, out=fresh)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = fresh
        top = int(fresh[-1])
        if top == n:
            rank -= 1
            return order, rank, levels
        span *= groups


def lcp_from_levels(sa, levels):
    """LCP of adjacent suffix-array entries (``int64``, length ``n - 1``)
    by descending the key levels of :func:`suffix_levels`."""
    first = sa[:-1]
    second = sa[1:]
    lcp = np.zeros(len(first), dtype=np.int64)
    for keys, span, bits, groups in reversed(levels):
        diff = keys[first + lcp]
        diff ^= keys[second + lcp]
        # ``diff`` is never 0 here (the top level's keys are all distinct,
        # and a lower level is entered at a group known to differ), so the
        # highest set bit lies in the first unequal group: group ``g`` is
        # the first one iff ``2**(bits*(groups-g-1)) <= diff <
        # 2**(bits*(groups-g))``, which one search over the group
        # boundaries decides in integers.
        bounds = np.array(
            [1 << (bits * low) for low in range(1, groups)], dtype=np.int64
        )
        equal = np.searchsorted(bounds, diff, side="right")
        np.subtract(groups - 1, equal, out=equal)
        if span != 1:
            equal *= span
        lcp += equal
    return lcp


def suffix_array_multiplying(ranks):
    """Suffix array of a rank-compressed token array as a list -- the
    ``build(ranks)`` shape of the other constructions, for the tests."""
    if len(ranks) < 2:
        return list(range(len(ranks)))
    return suffix_levels(ranks)[0].tolist()
