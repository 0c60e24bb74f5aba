"""Candidate trie (Section 4.3).

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

This module owns the trie *structure* only. Matching is
:class:`~repro.core.matching.AutomatonMatchEngine`, which represents the
whole pointer set as one state over the suffix links this module's nodes
carry (``fail`` / ``out`` / ``chain_len``, plus the reverse suffix links
``fchild`` / ``fnext`` / ``fprev``), all maintained by the engine. The
seed's explicit pointer scan -- one object per pointer, re-walked on
every token -- is the reference the parity suites compare the engine
against, and lives with them under ``tests/``.

Node shape. A node is one object and holds no container: its children
form a singly linked sibling list (``kid`` is the first child, ``sib``
the next one, ``token`` the label of the edge into a node), appended at
the tail, so children enumerate in insertion order. The root's children
are the one token-indexed dispatch dict, :attr:`CandidateTrie.heads`.
Mined tries are almost all single-child chains thousands of nodes deep,
so a dict per node was more memory than the node and most of what the
collector walked. How a node stores its children is local; the links
between nodes are agreed state, and do not move.
"""


class TrieNode:
    """One node of the candidate trie.

    ``token`` labels the edge into the node, ``kid`` is its first child
    and ``sib`` its next sibling (the root's children are
    :attr:`CandidateTrie.heads`, so its ``kid`` stays ``None``).

    ``deep`` references the deepest candidate at or below this node (its
    length against ``depth`` says how much further a match here could
    still extend); the replayer uses it to decide whether a completed
    match is worth deferring. No pointer is ever at the root, so the
    root's stays ``None``.

    ``fail`` / ``out`` / ``chain_len`` are the automaton links of
    :class:`~repro.core.matching.AutomatonMatchEngine` (deepest proper
    suffix that is also a trie path; nearest suffix bearing a candidate;
    number of suffix-chain entries at or above this node).
    ``fchild`` / ``fnext`` / ``fprev`` thread the reverse of ``fail``
    intrusively: ``fchild`` heads the doubly linked list of nodes whose
    ``fail`` is this node, and ``fnext`` / ``fprev`` are this node's
    neighbours on its own ``fail``'s list (the root's list is kept by the
    engine, bucketed by last token). All six are ``None``/0 until an
    engine links the trie, and again once it unlinks it.
    """

    __slots__ = (
        "token",
        "kid",
        "sib",
        "candidate",
        "depth",
        "deep",
        "fail",
        "out",
        "chain_len",
        "fchild",
        "fnext",
        "fprev",
    )

    def __init__(self, depth=0, token=None):
        self.token = token  # label of the edge into this node
        self.kid = None  # first child
        self.sib = None  # next child of the same parent
        self.candidate = None  # TraceCandidate terminating here, if any
        self.depth = depth
        self.deep = None  # deepest TraceCandidate at or below this node
        self.fail = None  # automaton suffix link
        self.out = None  # nearest candidate-bearing suffix node
        self.chain_len = 0  # suffix-chain entries at or above this node
        self.fchild = None  # first node whose fail is this one
        self.fnext = None  # siblings on this node's fail's list
        self.fprev = None


class TraceCandidate:
    """A candidate trace tracked by the replayer.

    Attributes mirror what the scoring function (Section 4.3) needs: how
    often the trace has been seen, when it was last seen (in tasks), and
    whether it has already been recorded/replayed.
    """

    __slots__ = (
        "trace_id",
        "tokens",
        "length",
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
        self.length = len(self.tokens)  # read on every serving step
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

    def __repr__(self):
        return (
            f"TraceCandidate(id={self.trace_id}, len={self.length}, "
            f"seen={self.occurrences})"
        )


class CompletedMatch:
    """A candidate fully matched against the task stream."""

    __slots__ = ("candidate", "start_index", "end_index")

    def __init__(self, candidate, start_index, end_index):
        self.candidate = candidate
        self.start_index = start_index
        self.end_index = end_index  # exclusive

    def __repr__(self):
        return (
            f"CompletedMatch({self.candidate!r}, "
            f"[{self.start_index}, {self.end_index}))"
        )


class CandidateTrie:
    """Trie of candidate traces. It only grows: a candidate, once
    inserted, stays for the trie's life, so every node below the root
    has a ``deep`` candidate at or below it."""

    def __init__(self):
        self.root = TrieNode()
        #: The root's children: token -> depth-1 node.
        self.heads = {}
        self.candidates = {}  # trace_id -> TraceCandidate
        self._by_tokens = {}  # tokens tuple -> TraceCandidate
        self._next_id = 0
        #: Bumped on every structural change (a candidate actually
        #: added); the automaton matcher uses it to invalidate its links
        #: when the trie is mutated behind its back.
        self.version = 0

    def child(self, node, token):
        """``node``'s child on ``token``, or ``None``."""
        if node is self.root:
            return self.heads.get(token)
        child = node.kid
        while child is not None and child.token != token:
            child = child.sib
        return child

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
        candidate = TraceCandidate(self._next_id, tokens)
        length = candidate.length
        # The prefix the trie already holds: the new candidate may become
        # the deepest at or below each of its nodes.
        node, depth = self.root, 0
        for token in tokens:
            child = self.child(node, token)
            if child is None:
                break
            node, depth = child, depth + 1
            if length > node.deep.length:
                node.deep = candidate
        # The rest is a fresh chain: nothing to look up below its first
        # node, and the new candidate is the deepest all along it.
        for token in tokens[depth:]:
            child = TrieNode(node.depth + 1, token)
            child.deep = candidate
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

    def __len__(self):
        return len(self.candidates)
