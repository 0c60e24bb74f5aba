"""Candidate trie and active-pointer matching (Section 4.3).

The trace replayer ingests candidate traces (token tuples produced by
Algorithm 2) into a trie. As the application issues tasks, a set of
*active pointers* into the trie tracks every candidate trace that could
currently be matching: each new token starts a fresh pointer at the root,
advances every existing pointer that has a matching child, and discards
pointers that cannot advance. A pointer that reaches a node marked as the
end of a candidate has matched that candidate.

A matched candidate may be a prefix of a longer one (the node has both a
candidate mark and children); the pointer keeps advancing so the replayer
can prefer the longer match if it completes.

This module owns the trie *structure* and the explicit pointer-scan
matcher (:meth:`CandidateTrie.advance`), which is the reference
semantics. The production serving path drives the trie through a
pluggable :mod:`repro.core.matching` engine; the default automaton
engine deduplicates the pointer set through the suffix links this
module's nodes carry (``fail`` / ``out`` / ``chain_len``, maintained by
:class:`~repro.core.matching.AutomatonMatchEngine`).
"""


class TrieNode:
    """One node of the candidate trie.

    ``max_below`` tracks the maximum length of any candidate at or below
    this node, and ``deep`` references that deepest candidate; the replayer
    uses them to decide whether a completed match might still extend into a
    longer (or higher-scoring) candidate and is worth deferring.

    ``fail`` / ``out`` / ``chain_len`` are the automaton links of
    :class:`~repro.core.matching.AutomatonMatchEngine` (deepest proper
    suffix that is also a trie path; nearest suffix bearing a candidate;
    number of suffix-chain entries at or above this node). They are
    ``None``/0 until an automaton engine adopts the trie, and the scan
    matcher never reads them.
    """

    __slots__ = (
        "children",
        "candidate",
        "depth",
        "max_below",
        "deep",
        "fail",
        "out",
        "chain_len",
    )

    def __init__(self, depth=0):
        self.children = {}
        self.candidate = None  # TraceCandidate terminating here, if any
        self.depth = depth
        self.max_below = depth
        self.deep = None  # deepest TraceCandidate at or below this node
        self.fail = None  # automaton suffix link
        self.out = None  # nearest candidate-bearing suffix node
        self.chain_len = 0  # suffix-chain entries at or above this node


class TraceCandidate:
    """A candidate trace tracked by the replayer.

    Attributes mirror what the scoring function (Section 4.3) needs: how
    often the trace has been seen, when it was last seen (in tasks), and
    whether it has already been recorded/replayed.
    """

    __slots__ = (
        "trace_id",
        "tokens",
        "occurrences",
        "last_seen_at",
        "replayed",
        "recorded",
        "fires",
        "gap_tokens",
        "rotation_key",
    )

    def __init__(self, trace_id, tokens):
        self.trace_id = trace_id
        self.tokens = tuple(tokens)
        self.occurrences = 0
        self.last_seen_at = None
        self.replayed = False
        self.recorded = False
        # Realized-replay record (scoring hysteresis, Section 4.3 churn
        # fix): how often this candidate actually committed, and how many
        # buffered tasks had to be flushed untraced immediately before
        # its commits (the misalignment cost of choosing it).
        self.fires = 0
        self.gap_tokens = 0
        # ``(length, canonical rotation)``: the candidate's rotation
        # group in :class:`~repro.core.candidates.CandidateStore`, set by
        # the store on admission so Booth's algorithm runs once per
        # candidate rather than once per look-up.
        self.rotation_key = None

    @property
    def length(self):
        return len(self.tokens)

    def __repr__(self):
        return (
            f"TraceCandidate(id={self.trace_id}, len={self.length}, "
            f"seen={self.occurrences})"
        )


class ActivePointer:
    """A potential in-progress match of some candidate(s)."""

    __slots__ = ("node", "start_index")

    def __init__(self, node, start_index):
        self.node = node
        self.start_index = start_index

    def __repr__(self):
        return f"ActivePointer(start={self.start_index}, depth={self.node.depth})"


class CompletedMatch:
    """A candidate fully matched against the task stream.

    ``node`` is the trie node the match completed at; the replayer uses its
    ``max_below`` to see whether a longer candidate could still extend the
    match.
    """

    __slots__ = ("candidate", "start_index", "end_index", "node")

    def __init__(self, candidate, start_index, end_index, node=None):
        self.candidate = candidate
        self.start_index = start_index
        self.end_index = end_index  # exclusive
        self.node = node

    def __repr__(self):
        return (
            f"CompletedMatch({self.candidate!r}, "
            f"[{self.start_index}, {self.end_index}))"
        )


class CandidateTrie:
    """Trie of candidate traces with active-pointer stream matching."""

    def __init__(self):
        self.root = TrieNode()
        self.candidates = {}  # trace_id -> TraceCandidate
        self._by_tokens = {}  # tokens tuple -> TraceCandidate
        self._next_id = 0
        self.active = []
        #: Bumped on every structural change (a candidate actually added
        #: or removed); the automaton matcher uses it to invalidate its
        #: links when the trie is mutated behind its back.
        self.version = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def insert(self, tokens):
        """Ingest one candidate trace; returns its :class:`TraceCandidate`.

        Re-inserting an existing candidate is a no-op returning the
        original, so repeated analyses reinforce rather than duplicate.
        """
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
            path.append(node)
            child = node.children.get(token)
            if child is None:
                child = TrieNode(node.depth + 1)
                node.children[token] = child
            node = child
        path.append(node)
        candidate = TraceCandidate(self._next_id, tokens)
        for visited in path:
            if length > visited.max_below or visited.deep is None:
                visited.max_below = max(visited.max_below, length)
                visited.deep = candidate
        self._next_id += 1
        node.candidate = candidate
        self.candidates[candidate.trace_id] = candidate
        self._by_tokens[tokens] = candidate
        self.version += 1
        return candidate

    def find(self, tokens):
        """The candidate whose trace is exactly ``tokens``, or ``None``.

        The public spelling of the dedup lookup :meth:`insert` uses; the
        replayer's ingestion path asks this before deciding whether a
        mined repeat is a re-discovery (reinforce) or a new phase
        (insert).
        """
        return self._by_tokens.get(tuple(tokens))

    def remove(self, candidate):
        """Remove a candidate's terminal mark (its nodes may be shared).

        ``max_below``/``deep`` are recomputed bottom-up along the removed
        candidate's path: a node whose deepest candidate was the removed
        one must fall back to the next-deepest survivor, or the replayer
        would keep deferring matches waiting for an extension that can no
        longer complete. Branches left with no candidate at or below them
        are pruned so dead tokens stop spawning active pointers.

        Returns ``True`` when the candidate was actually removed,
        ``False`` for stale references (a no-op).
        """
        if self._by_tokens.get(candidate.tokens) is not candidate:
            return False  # stale reference: tokens are not (or no longer) its
        node = self.root
        path = [node]
        for token in candidate.tokens:
            node = node.children.get(token)
            if node is None:
                return False
            path.append(node)
        if node.candidate is candidate:
            node.candidate = None
        self.candidates.pop(candidate.trace_id, None)
        del self._by_tokens[candidate.tokens]
        self.version += 1
        for i in range(len(path) - 1, -1, -1):
            node = path[i]
            deepest = node.candidate
            for child in node.children.values():
                if child.deep is not None and (
                    deepest is None or child.deep.length > deepest.length
                ):
                    deepest = child.deep
            node.deep = deepest
            node.max_below = deepest.length if deepest is not None else node.depth
            if i > 0 and not node.children and deepest is None:
                del path[i - 1].children[candidate.tokens[i - 1]]
        return True

    # ------------------------------------------------------------------
    # Stream matching (AdvanceActiveCandidates / Filter* of Algorithm 1)
    # ------------------------------------------------------------------
    def advance(self, token, index):
        """Advance all pointers by one stream token.

        ``index`` is the absolute stream position of ``token``. Returns the
        list of :class:`CompletedMatch` objects for candidates whose final
        token is ``token``.
        """
        completed = []
        survivors = []
        for pointer in self.active:
            child = pointer.node.children.get(token)
            if child is None:
                continue  # FilterInvalidCandidates
            pointer.node = child
            if child.candidate is not None:
                completed.append(
                    CompletedMatch(
                        child.candidate, pointer.start_index, index + 1, child
                    )
                )
            if child.children:
                survivors.append(pointer)
        root_child = self.root.children.get(token)
        if root_child is not None:
            if root_child.candidate is not None:
                completed.append(
                    CompletedMatch(root_child.candidate, index, index + 1, root_child)
                )
            if root_child.children:
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

    def __len__(self):
        return len(self.candidates)
