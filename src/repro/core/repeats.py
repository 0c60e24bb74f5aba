"""Algorithm 2: non-overlapping repeated substrings with high coverage.

This is the paper's repeat-finding algorithm (``FindRepeats``), which the
trace finder runs asynchronously over slices of the task history buffer.
Given a token string ``S`` it returns a set of repeated substrings chosen
to cover as much of ``S`` as possible, in O(n log n):

1. Build the suffix array and LCP array of ``S``.
2. For each adjacent pair of suffixes, emit *candidate* repeats. When the
   shared prefix of the two suffixes does not overlap in ``S``, the shared
   prefix itself occurs at both positions. When it overlaps (the suffixes
   start ``d`` apart with ``d < p``), the overlap region is a run of
   repetitions of the period ``S[s1:s1+d]``; the algorithm emits two
   adjacent repetitions of length ``l = ((p+d)//2)`` rounded down to a
   multiple of ``d``.
3. Sort candidates by decreasing length (so the greedy pass prefers long
   repeats), grouping equal substrings together, and greedily keep every
   candidate interval that does not overlap a previously kept one.
4. Deduplicate the kept substrings.

Two deliberate heuristics (discussed in the paper): only the maximal-length
repetition of each adjacent pair is considered, and selection is greedy
rather than an optimal interval packing, so only the longest repeated
substring is guaranteed; coverage of the rest is best-effort.

Instead of materializing every candidate substring for the sort (which is
quadratic on periodic inputs), candidates are ordered by the suffix rank of
their start position: all positions sharing an ``l``-token prefix form a
contiguous block of the suffix array, so equal substrings of equal length
sort adjacently and blocks sort lexicographically -- the order the paper's
sort produces -- without copying.

Two pipelines compute steps 1-3, chosen by the window length alone, and
return the same selection (``tests/test_sa_backends.py`` holds them equal on
full ``Repeat`` lists): :func:`_select_scalar` on Python lists (SA-IS,
Kasai, tuple sort, a ``bytearray`` greedy pass) and
:func:`_select_vectorised` on ``int64`` arrays
(:mod:`repro.core.sa_backends.multiplying` for the suffix array and LCP,
then candidates, order and the greedy screen as array expressions).
NumPy's fixed cost per call loses to the interpreter on short windows
and wins beyond :data:`VECTOR_CUTOVER`. Both read only the
rank-compressed window -- raw tokens are unsigned 64-bit hashes or
arbitrary hashables and never enter an array -- so the result stays a
pure function of the window, which is what replicas agree on
(Section 5.1).
"""

from repro.core.sa_backends import multiplying, suffix_array_sais
from repro.core.suffix_array import (
    inverse_suffix_array,
    lcp_array_from_ranks,
    rank_compress,
    suffix_array_from_ranks,
)

#: Windows of at least this many tokens take the NumPy pipeline.
#:
#: Measured, not tuned by hand: prefixes of the windows the six ``bench/``
#: workloads mine, ``find_repeats(min_length=5)`` through each pipeline,
#: best of 25 alternating repetitions, microseconds scalar / vectorised:
#:
#: ===============  =======  =======  =======  =======  =======  ========  =========  ==========
#: tokens                64       96      128      160      192      256       1000        5000
#: ===============  =======  =======  =======  =======  =======  ========  =========  ==========
#: steady_s3d         69/67  150/182  235/218  291/315  354/295   406/228   2017/500  13370/2502
#: adversarial_gen   105/89  173/129  233/128  297/177  307/147   386/169   2640/644  10984/1830
#: irregular_novel  116/108  153/116  175/109  262/140  302/150   412/184   1995/422  10122/1581
#: service_8x       179/233  214/250  349/292  435/299  517/300   708/334   3055/655           -
#: ===============  =======  =======  =======  =======  =======  ========  =========  ==========
#:
#: NumPy pays ~100 us of fixed per-call cost a job; the pipelines are level
#: between 64 and 160 tokens depending on the stream, and from 192 the
#: vectorised one leads on all four. Real windows are
#: ``multi_scale_factor * 2**k`` (25.., 250..), so the constant separates
#: the 100- from the 200-token window and sits below the 250-token one.
VECTOR_CUTOVER = 192

#: Sorted candidates in the first block the greedy pass screens against
#: ``covered`` at once; each later block is twice the one before.
_GREEDY_FIRST_BLOCK = 32


class Repeat:
    """A repeated substring selected by :func:`find_repeats`.

    Attributes
    ----------
    tokens:
        The repeated substring, as a tuple of the original tokens.
    positions:
        Sorted tuple of the non-overlapping start positions selected for
        this substring.
    """

    __slots__ = ("tokens", "positions")

    def __init__(self, tokens, positions):
        self.tokens = tuple(tokens)
        self.positions = tuple(sorted(positions))

    @property
    def length(self):
        return len(self.tokens)

    @property
    def count(self):
        return len(self.positions)

    @property
    def covered(self):
        """Tokens of the input covered by this repeat's selections."""
        return self.length * self.count

    def __repr__(self):
        return f"Repeat(len={self.length}, count={self.count})"

    def __eq__(self, other):
        return (
            isinstance(other, Repeat)
            and self.tokens == other.tokens
            and self.positions == other.positions
        )

    def __hash__(self):
        # Intra-process dict/set membership only; no decision ever reads
        # iteration order of a Repeat set (RPL008 guards that side).
        return hash((self.tokens, self.positions))  # replint: allow[RPL003] membership hashing within one process; repeats never cross processes unserialized


def _candidates(s, sa, lcp, min_length):
    """Candidate (length, start) pairs from adjacent suffix-array entries."""
    out = []
    for i in range(len(sa) - 1):
        s1, s2, p = sa[i], sa[i + 1], lcp[i]
        if p < min_length:
            continue
        if s1 > s2:
            s1, s2 = s2, s1
        if s2 >= s1 + p:
            # The two occurrences of the shared prefix do not overlap.
            out.append((p, s1))
            out.append((p, s2))
        else:
            # Overlapping occurrences: the region is periodic with period
            # d = s2 - s1. Emit two adjacent repetitions of a multiple of
            # the period.
            d = s2 - s1
            length = (p + d) // 2
            length -= length % d
            if length >= min_length:
                out.append((length, s1))
                out.append((length, s1 + length))
    return out


def find_repeats(tokens, min_length=1, min_occurrences=2, backend=None):
    """Find non-overlapping repeated substrings with high coverage.

    Parameters
    ----------
    tokens:
        Sequence of hashable tokens (task hashes, characters, ints...).
    min_length:
        Minimum repeat length to consider (the paper's minimum trace
        length constraint, Section 3).
    min_occurrences:
        Substrings whose greedy selection kept fewer than this many
        non-overlapping occurrences are dropped from the result: a
        substring matched once in the window is useless as a trace. The
        paper's Figure 4 output (``{aa, bc}`` for ``aabcbcbaa``) reflects
        this filtering. Pass 1 to keep every selection.
    backend:
        Suffix-array construction callable (see
        :mod:`repro.core.sa_backends`) for the scalar pipeline; passing
        one also pins the scalar pipeline at any window size. The suffix
        array is unique, so every construction yields identical output
        here; only the property tests pass one.

    Returns
    -------
    list[Repeat]
        Deduplicated repeats, each with the non-overlapping positions the
        greedy pass selected, ordered by decreasing length then first
        position.
    """
    tokens = list(tokens)
    n = len(tokens)
    if n < 2 or min_length > n:
        return []
    min_length = max(1, min_length)
    # Compress once; the suffix array, LCP array, and candidate keys below
    # all share this one dense array (the rank-compression contract).
    s = rank_compress(tokens)
    if backend is None and n >= VECTOR_CUTOVER and multiplying.available(n):
        selected = _select_vectorised(s, min_length)
    else:
        selected = _select_scalar(s, min_length, backend or suffix_array_sais)

    repeats = []
    for length, positions in selected:
        if len(positions) < min_occurrences:
            continue
        first = positions[0]
        repeats.append(Repeat(tokens[first : first + length], positions))
    repeats.sort(key=lambda r: (-r.length, r.positions[0]))
    return repeats


def _select_scalar(s, min_length, backend):
    """Steps 1-3 of Algorithm 2 on Python lists: ``(length, positions)``
    per selected substring."""
    n = len(s)
    sa = suffix_array_from_ranks(s, backend)
    rank = inverse_suffix_array(sa)
    lcp = lcp_array_from_ranks(s, sa, rank)
    cands = _candidates(s, sa, lcp, min_length)

    # Order: decreasing length; within a length, by suffix rank so equal
    # substrings are adjacent and groups are lexicographic; then by start.
    # Sorting pre-built key tuples runs entirely in C; a per-element
    # lambda key would dominate this function's runtime.
    cands = [(-length, rank[start], start) for length, start in cands]
    cands.sort()

    # Greedy selection with an O(1) overlap test: because candidates are
    # visited in decreasing length order, a previously selected interval
    # can never lie strictly inside a later (shorter or equal) candidate,
    # so testing the candidate's endpoints against the covered mark array
    # is sufficient.
    covered = bytearray(n)
    selected = {}
    for neg_length, _, start in cands:
        end = start - neg_length
        if covered[start] or covered[end - 1]:
            continue
        key = tuple(s[start:end])
        positions = selected.get(key)
        if positions is None:
            selected[key] = positions = []
        positions.append(start)
        covered[start:end] = b"\x01" * (end - start)
    return [(len(key), positions) for key, positions in selected.items()]


def _select_vectorised(s, min_length):
    """:func:`_select_scalar` as ``int64`` array expressions -- the same
    candidates visited in the same order, so the same selection."""
    np = multiplying.np
    n = len(s)
    sa, rank, levels = multiplying.suffix_levels(s)
    lcp = multiplying.lcp_from_levels(sa, levels)

    # :func:`_candidates`, both branches at once.
    first = np.minimum(sa[:-1], sa[1:])
    second = np.maximum(sa[:-1], sa[1:])
    gap = second - first
    overlap = gap < lcp
    length = lcp + gap
    length >>= 1
    length -= length % gap
    np.copyto(length, lcp, where=~overlap)
    np.copyto(second, first + length, where=overlap)
    keep = np.flatnonzero(length >= min_length)
    first = first[keep]
    second = second[keep]
    length = length[keep]

    # The (-length, suffix rank, start) order in one sort of packed keys.
    # A suffix rank names its start, so two fields decide the order and
    # the sorted key gives back all three.
    bits = n.bit_length()
    keys = n - length
    keys <<= bits
    keys = np.concatenate((keys | rank[first], keys | rank[second]))
    keys.sort()
    starts = sa[keys & ((1 << bits) - 1)]
    keys >>= bits
    lasts = starts - keys
    lasts += n - 1

    # The greedy pass. A block of candidates is screened against
    # ``covered`` in one expression; the survivors are then re-tested one
    # by one, since a selection inside the block may have covered them.
    # Blocks start small and double: on a periodic window the first few
    # selections cover most of it, and every later block is screened
    # against them at once.
    marks = bytearray(n)
    covered = np.frombuffer(marks, dtype=np.bool_)
    selected = []
    low, block = 0, _GREEDY_FIRST_BLOCK
    while low < len(keys):
        taken = covered[starts[low : low + block]]
        taken |= covered[lasts[low : low + block]]
        free = np.flatnonzero(~taken)
        free += low
        low += block
        block *= 2
        for start, last in zip(starts[free].tolist(), lasts[free].tolist()):
            if marks[start] or marks[last]:
                continue
            covered[start : last + 1] = True
            # Equal substrings of one length are adjacent in the visiting
            # order, so a selection either extends the newest group or
            # opens the next one.
            size = last + 1 - start
            if selected and selected[-1][0] == size:
                positions = selected[-1][1]
                head = positions[0]
                if s[head : head + size] == s[start : last + 1]:
                    positions.append(start)
                    continue
            selected.append((size, [start]))
    return selected


def covered_tokens(repeats):
    """Total number of input tokens covered by a repeat selection."""
    return sum(r.covered for r in repeats)


def canonical_rotation(tokens):
    """The lexicographically-least rotation of ``tokens`` (Booth's
    algorithm, O(n)).

    Used to deduplicate candidate traces: successive analyses of a
    periodic stream window discover the same cycle at different phases,
    and all rotations of one cycle share a canonical form. Tokens are
    compared by rank of first appearance in the doubled string, which is
    consistent for equality/ordering purposes.
    """
    tokens = list(tokens)
    n = len(tokens)
    if n <= 1:
        return tuple(tokens)
    # Tokens must share a total order that is intrinsic (not derived from
    # position), or the canonical form would not be rotation-invariant.
    # Stream tokens are 64-bit hash integers, so direct comparison works;
    # tests use strings, which also compare directly.
    s = tokens + tokens
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return tuple(tokens[(k + offset) % n] for offset in range(n))
