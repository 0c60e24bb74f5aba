"""Reference implementations the parity suites compare ``src/`` against.

Nothing under ``src/repro`` imports these; they are the seed's
semantics, kept unchanged and slow on purpose, and reached only through
the injection seams the production code keeps for them:

* :class:`ScanMatchEngine` -- one explicit :class:`ActivePointer` per
  live match attempt, re-walked on every token, over
  :class:`PointerScanTrie` (the candidate trie plus the seed's pointer
  scan). Passed as ``TraceReplayer(match_engine=ScanMatchEngine)`` /
  ``ApopheniaProcessor(..., match_engine=ScanMatchEngine)``.
* :func:`suffix_array_doubling` -- prefix doubling with a per-element
  lambda sort key. Passed as ``find_repeats(tokens,
  backend=suffix_array_doubling)`` or ``suffix_array(..., backend=...)``.
* :func:`worth_waiting` -- the deferral check with the held match's
  decayed score computed up front on every call. Called as
  ``worth_waiting(policy, match, now_index, pointers)`` on a
  :class:`~repro.core.scoring.ReplayDecisionPolicy`, beside that
  policy's own method (``tests/test_scoring.py``).
* :class:`PathInsertTrie` -- the candidate trie whose ``insert`` looks
  every token up with ``child()`` and sets ``deep`` in a second pass
  over the whole path. Compared node by node with
  :meth:`~repro.core.trie.CandidateTrie.insert` (``tests/test_trie.py``).
* :class:`FixedTrigger` -- the trace finder's retired
  ``identifier_algorithm="fixed"`` trigger. Set as a
  :class:`~repro.core.finder.TraceFinder`'s ``sampler``, beside a finder
  running the multi-scale schedule at ``multi_scale_factor = batchsize``
  (``tests/test_finder_jobs.py``).
"""

from repro.core.trie import (
    CandidateTrie,
    CompletedMatch,
    TraceCandidate,
    TrieNode,
)


class ActivePointer:
    """A potential in-progress match of some candidate(s)."""

    __slots__ = ("node", "start_index")

    def __init__(self, node, start_index):
        self.node = node
        self.start_index = start_index

    def __repr__(self):
        return f"ActivePointer(start={self.start_index}, depth={self.node.depth})"


class PointerScanTrie(CandidateTrie):
    """Candidate trie with the seed's active-pointer stream matching
    (AdvanceActiveCandidates / Filter* of Algorithm 1)."""

    def __init__(self):
        super().__init__()
        self.active = []

    def advance(self, token, index):
        """Advance all pointers by one stream token.

        ``index`` is the absolute stream position of ``token``. Returns the
        list of :class:`CompletedMatch` objects for candidates whose final
        token is ``token``.
        """
        completed = []
        survivors = []
        for pointer in self.active:
            child = self.child(pointer.node, token)
            if child is None:
                continue  # FilterInvalidCandidates
            pointer.node = child
            if child.candidate is not None:
                completed.append(
                    CompletedMatch(child.candidate, pointer.start_index, index + 1)
                )
            if child.kid is not None:
                survivors.append(pointer)
        root_child = self.heads.get(token)
        if root_child is not None:
            if root_child.candidate is not None:
                completed.append(
                    CompletedMatch(root_child.candidate, index, index + 1)
                )
            if root_child.kid is not None:
                survivors.append(ActivePointer(root_child, index))
        self.active = survivors
        return completed

    def reset_pointers(self):
        """Drop all active pointers (after a replay consumes the stream)."""
        self.active = []

    def earliest_active_start(self):
        """Smallest stream index any active pointer began at, or ``None``.

        ``active`` is sorted by ``start_index`` ascending by construction:
        ``advance`` keeps survivors in order and appends the (newest) root
        pointer last -- so the earliest start is the first element. This
        runs once per stream token; scanning instead of indexing was ~15%
        of end-to-end serving time.
        """
        if not self.active:
            return None
        return self.active[0].start_index


class PathInsertTrie(CandidateTrie):
    """Candidate trie with the two-pass insert: a child look-up and a
    path entry per token, then ``deep`` over the whole path."""

    def insert(self, tokens):
        tokens = tuple(tokens)
        if not tokens:
            raise ValueError("cannot insert an empty candidate")
        existing = self._by_tokens.get(tokens)
        if existing is not None:
            return existing
        node = self.root
        length = len(tokens)
        path = []
        for token in tokens:
            child = self.child(node, token)
            if child is None:
                child = TrieNode(node.depth + 1, token)
                if node is self.root:
                    self.heads[token] = child
                elif node.kid is None:
                    node.kid = child
                else:
                    last = node.kid
                    while last.sib is not None:
                        last = last.sib
                    last.sib = child  # the tail: insertion order
            node = child
            path.append(node)
        candidate = TraceCandidate(self._next_id, tokens)
        for visited in path:
            if visited.deep is None or length > visited.deep.length:
                visited.deep = candidate
        self._next_id += 1
        node.candidate = candidate
        self.candidates[candidate.trace_id] = candidate
        self._by_tokens[tokens] = candidate
        self.version += 1
        return candidate


class ScanMatchEngine:
    """Reference engine: one explicit pointer per live match attempt.

    Thin adapter over the seed-semantics matcher of
    :class:`PointerScanTrie` (``advance`` / ``active`` /
    ``reset_pointers``). Kept as the baseline the automaton engine is
    property-tested against — like :func:`suffix_array_doubling`, it is
    a reference and must not be "optimized".
    """

    name = "scan"

    def __init__(self, trie=None):
        self.trie = trie if trie is not None else PointerScanTrie()
        #: Most pointers simultaneously alive (what every token walks).
        self.active_pointer_peak = 0
        #: Pointers represented implicitly instead of walked: the scan
        #: engine deduplicates nothing, so this is always 0.
        self.pointer_collapses = 0

    # -- candidate-set mutation ----------------------------------------
    def insert(self, tokens):
        return self.trie.insert(tokens)

    def find(self, tokens):
        return self.trie.find(tokens)

    # -- stream matching ------------------------------------------------
    def advance(self, token, index):
        completed = self.trie.advance(token, index)
        active = len(self.trie.active)
        if active > self.active_pointer_peak:
            self.active_pointer_peak = active
        return completed

    def reset(self):
        self.trie.reset_pointers()

    def earliest_active_start(self):
        return self.trie.earliest_active_start()

    def pointers(self):
        """Yield ``(start_index, node)`` per live pointer, start ascending."""
        for pointer in self.trie.active:
            yield pointer.start_index, pointer.node

    def __len__(self):
        return len(self.trie)


def suffix_array_doubling(s):
    """Suffix array of a rank-compressed token array, by prefix doubling.

    The seed implementation, preserved verbatim as the reference the
    property tests (``tests/test_sa_backends.py``) compare SA-IS and
    prefix multiplying against: prefix doubling with Python's built-in
    sort and a per-element lambda key at each doubling step. Each of the
    O(log n) rounds sorts with a closure that allocates a rank-pair tuple
    per comparison key -- slow on purpose; it is an oracle, not an
    option, and must stay unoptimised.
    """
    n = len(s)
    if n == 0:
        return []
    if n == 1:
        return [0]
    order = sorted(range(n), key=lambda i: s[i])
    ranks = [0] * n
    ranks[order[0]] = 0
    for i in range(1, n):
        ranks[order[i]] = ranks[order[i - 1]] + (
            1 if s[order[i]] != s[order[i - 1]] else 0
        )
    k = 1
    tmp = [0] * n
    while k < n:
        def key(i):
            second = ranks[i + k] if i + k < n else -1
            return (ranks[i], second)

        order.sort(key=key)
        tmp[order[0]] = 0
        for i in range(1, n):
            tmp[order[i]] = tmp[order[i - 1]] + (
                1 if key(order[i]) != key(order[i - 1]) else 0
            )
        ranks = tmp[:]
        if ranks[order[-1]] == n - 1:
            break
        k <<= 1
    return order


def worth_waiting(self, match, now_index, pointers):
    """``ReplayDecisionPolicy.worth_waiting`` as it was before the score
    ceiling: the held match's decayed score is the threshold, computed
    before the first pointer is looked at. ``self`` is the policy; its
    ``hysteresis_suppressed`` counter moves exactly as the method's."""
    # Hysteresis discounts only the speculative side, and only for
    # full-buffer-scale candidates with a realized record (see
    # ``hysteresis_min_length``): the candidate being waited *for*
    # pays for the misalignment gaps its past commits stranded,
    # while the completed match in hand keeps its full score --
    # holding is never made cheaper, only chasing. Untried
    # candidates keep the paper's optimistic potential, so
    # exploration is untouched.
    scoring = self.scoring
    threshold = scoring.score(match.candidate, now_index)
    suppressed = False
    for start, node in pointers:
        if start >= match.end_index:
            # Pointers arrive sorted by start: every later one
            # also consumes only stream beyond the match.
            break
        deep = node.deep
        if deep is None or deep.length <= node.depth:
            continue  # nothing deeper can complete from here
        potential = scoring.potential(deep, now_index)
        if potential <= threshold:
            continue
        if potential * scoring.discount(deep) > threshold:
            return True
        suppressed = True  # the paper's scoring would have waited
    if suppressed:
        self.hysteresis_suppressed += 1
    return False


class FixedTrigger:
    """The fixed strategy the finder once branched to: analyze the full
    buffer every time it fills. Answers ``size_at`` off the finder's op
    clock, as :class:`~repro.core.sampler.MultiScaleSampler` does."""

    def __init__(self, batchsize):
        self.batchsize = batchsize

    def size_at(self, ops_observed):
        # Fixed strategy: analyze the full buffer every time it fills.
        if ops_observed % self.batchsize == 0:
            return self.batchsize
        return None
