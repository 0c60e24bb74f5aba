"""The pointer-set match engine over the candidate trie, and its reference.

The replayer's trie advance is the dominant serving cost on periodic
streams: the reference matcher (:class:`ScanMatchEngine`, the seed
semantics) keeps one explicit :class:`~repro.core.trie.ActivePointer`
per live match attempt, and every stream token pays one child lookup
*per pointer*. On a periodic stream whose period divides a long
candidate, pointers pile up at every phase of the cycle — depths ``d,
d-p, d-2p, ...`` down the same path — and each token re-walks that
whole ladder.

:class:`AutomatonMatchEngine` deduplicates the ladder. The live pointer
set is always a set of *suffixes* of the recent stream that are trie
paths, and every such suffix is a suffix of the longest one — so the
whole set collapses into a single automaton state (the deepest live
node) plus the trie's suffix links (``TrieNode.fail``), exactly the
Aho–Corasick construction. One token costs one child lookup (amortized)
instead of one per pointer, root dispatch is token-indexed by
construction (a token that begins no candidate is one failed dict probe),
and completed matches fall out of the ``out`` links.

Exactness is load-bearing: the tbegin/tend decision stream must be a
pure function of tokens + ingested candidates (Section 5.1's
distributed-agreement argument), so the automaton must equal the scan
engine *byte for byte* — including the scan engine's refusal to
resurrect pointers. A suffix that failed under the trie-as-it-was must
stay dead even if a candidate ingested later makes its path valid
again. The engine therefore tracks liveness epochs: on every structural
change (a candidate actually inserted or removed) it snapshots the
currently-live pointer starts (``_frozen``) and bumps the epoch; a chain
entry is *live* only if it was born after the last structural change or
its start is in the snapshot. ``tests/test_matching.py`` property-tests
scan/automaton parity on streams with mid-stream ingests and removals.

The automaton is *the* engine: there is no config field, registry name
or environment variable selecting one. The scan engine stays here, as
it was, only as the reference the parity suites construct directly
(``TraceReplayer(match_engine=ScanMatchEngine)``).
"""

from collections import deque

from repro.core.trie import CandidateTrie, CompletedMatch


class ScanMatchEngine:
    """Reference engine: one explicit pointer per live match attempt.

    Thin adapter over the seed-semantics matcher that lives on
    :class:`~repro.core.trie.CandidateTrie` (``advance`` / ``active`` /
    ``reset_pointers``). Kept as the baseline the automaton engine is
    property-tested against — like the ``doubling`` suffix-array
    backend, it is a reference and must not be "optimized".
    """

    name = "scan"

    def __init__(self, trie=None):
        self.trie = trie if trie is not None else CandidateTrie()
        #: Most pointers simultaneously alive (what every token walks).
        self.active_pointer_peak = 0
        #: Pointers represented implicitly instead of walked: the scan
        #: engine deduplicates nothing, so this is always 0.
        self.pointer_collapses = 0

    # -- candidate-set mutation ----------------------------------------
    def insert(self, tokens):
        return self.trie.insert(tokens)

    def remove(self, candidate):
        return self.trie.remove(candidate)

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


class AutomatonMatchEngine:
    """Deduplicated pointer set: one suffix-automaton state per stream.

    The state is the deepest *live* pointer's node; every shallower live
    pointer is on its ``fail`` chain and is enumerated (rarely) rather
    than advanced (every token). Liveness = "born after the last
    structural change, or explicitly carried across it" — see the module
    docstring for why that exactly reproduces the scan engine.

    Ticks vs. stream indices: pointer *identity* is its start index, but
    birth times are counted in ``advance()`` calls (``_ticks``), because
    the replayer re-feeds old stream indices when it reprocesses the
    pending tail after a commit — a birth test keyed on raw indices
    would refuse those respawns.
    """

    name = "automaton"

    def __init__(self, trie=None):
        self.trie = trie if trie is not None else CandidateTrie()
        self._state = self.trie.root
        self._ticks = 0  # advance() calls ever made
        self._last_index = -1  # stream index of the last advance
        self._epoch = 0  # entries born in a later tick are live
        self._frozen = frozenset()  # pre-epoch live pointer starts
        self._built_version = None
        self._rebuild()
        self.active_pointer_peak = 0
        self.pointer_collapses = 0

    # -- candidate-set mutation ----------------------------------------
    def insert(self, tokens):
        """Ingest a candidate; freezes liveness if the trie changes.

        Relinking is deferred to the next :meth:`advance` (the version
        check), so one ingest batch of k new candidates pays one O(trie)
        rebuild, not k. Between the insert and that rebuild the existing
        nodes' links are untouched and the new nodes are on no chain, so
        freezes and pointer enumeration still see exactly the
        pre-mutation live set -- which is the correct one.
        """
        tokens = tuple(tokens)
        existing = self.trie.find(tokens)
        if existing is not None:
            return existing  # reinforcement: no structural change
        self._freeze()
        return self.trie.insert(tokens)

    def remove(self, candidate):
        """Remove a candidate; freezes liveness if the trie changes.

        Surviving pointers keep their exact scan-engine fate: a pointer
        whose node lost its children simply fails on the next token
        (pruning only ever detaches childless nodes, so no live pointer
        can be stranded on a detached branch).
        """
        if self.trie.find(candidate.tokens) is not candidate:
            return False  # stale reference: nothing will change
        self._freeze()
        removed = self.trie.remove(candidate)
        self._rebuild()
        return removed

    def find(self, tokens):
        return self.trie.find(tokens)

    # -- stream matching ------------------------------------------------
    def advance(self, token, index):
        """Advance the pointer set by one stream token.

        Returns the :class:`~repro.core.trie.CompletedMatch` list in the
        scan engine's order (ascending start index).
        """
        if self._built_version != self.trie.version:
            # The trie was mutated behind the engine's back (insert() /
            # remove() on the trie directly): relink so matching is
            # structurally correct. Liveness epochs cannot be
            # reconstructed for that path — serving code must mutate
            # through the engine.
            self._rebuild()
        self._ticks += 1
        self._last_index = index
        root = self.trie.root
        epoch = self._epoch
        frozen = self._frozen
        born_base = self._ticks  # entry depth d after this token => born
        #                          at tick born_base - d + 1
        # Transition: deepest live chain entry that extends with `token`
        # (the root always qualifies — token-indexed spawn dispatch).
        s = self._state
        matched = None
        while True:
            if s is root:
                matched = s.children.get(token)
                break
            # Pre-token liveness: entry of depth d was born at tick
            # (ticks-1) - d + 1 and started at stream index `index - d`.
            if (born_base - s.depth > epoch
                    or index - s.depth in frozen):
                child = s.children.get(token)
                if child is not None:
                    matched = child
                    break
            s = s.fail
        if matched is None:
            self._state = root
            return []
        # Completed matches: candidate-bearing entries on the new chain,
        # deepest (earliest start) first, liveness-filtered.
        completed = []
        node = matched if matched.candidate is not None else matched.out
        while node is not None:
            if (born_base - node.depth + 1 > epoch
                    or index + 1 - node.depth in frozen):
                completed.append(
                    CompletedMatch(
                        node.candidate, index + 1 - node.depth, index + 1,
                        node,
                    )
                )
            node = node.out
        # Dedup accounting: the chain is what the scan engine would have
        # walked pointer by pointer this token.
        chain = matched.chain_len
        if chain > self.active_pointer_peak:
            self.active_pointer_peak = chain
        if chain > 1:
            self.pointer_collapses += chain - 1
        # Demote past entries that are no longer pointers (dead starts,
        # or nodes nothing can extend from), exactly as the scan engine
        # drops them from its survivor list.
        s = matched
        while s is not root and (
            not s.children
            or not (born_base - s.depth + 1 > epoch
                    or index + 1 - s.depth in frozen)
        ):
            s = s.fail
        self._state = s
        return completed

    def reset(self):
        """Drop all pointers (a committed replay consumed the stream)."""
        self._state = self.trie.root
        self._epoch = self._ticks
        self._frozen = frozenset()

    def earliest_active_start(self):
        """Start of the deepest live pointer — the state itself, O(1)."""
        state = self._state
        if state is self.trie.root:
            return None
        return self._last_index + 1 - state.depth

    def pointers(self):
        """Yield ``(start_index, node)`` per live pointer, start ascending.

        Walks the suffix chain lazily; the replayer's deferral check
        breaks out early, so the deep (interesting) end is enumerated
        without materializing the whole set.
        """
        root = self.trie.root
        index = self._last_index
        born_base = self._ticks
        epoch = self._epoch
        frozen = self._frozen
        s = self._state
        while s is not root:
            if s.children and (born_base - s.depth + 1 > epoch
                               or index + 1 - s.depth in frozen):
                yield index + 1 - s.depth, s
            s = s.fail

    def __len__(self):
        return len(self.trie)

    # -- internals -------------------------------------------------------
    def _freeze(self):
        """Snapshot live pointers before the trie's structure changes.

        Must run with the *pre-mutation* links: the live set is defined
        by the trie's history, and relinking first would let paths that
        only become valid after the mutation smuggle dead starts back in.
        """
        frozen = set()
        root = self.trie.root
        index = self._last_index
        born_base = self._ticks
        epoch = self._epoch
        old_frozen = self._frozen
        s = self._state
        while s is not root:
            if s.children and (born_base - s.depth + 1 > epoch
                               or index + 1 - s.depth in old_frozen):
                frozen.add(index + 1 - s.depth)
            s = s.fail
        self._frozen = frozenset(frozen)
        self._epoch = self._ticks

    def _rebuild(self):
        """Recompute ``fail`` / ``out`` / ``chain_len`` links (BFS).

        O(trie) per *structural* ingest — rare next to token advances:
        steady-state re-discoveries of known candidates are no-ops and
        never land here.
        """
        root = self.trie.root
        root.fail = None
        root.out = None
        root.chain_len = 0
        queue = deque()
        for child in root.children.values():
            child.fail = root
            child.out = None
            child.chain_len = 1
            queue.append(child)
        while queue:
            node = queue.popleft()
            for token, child in node.children.items():
                fail = node.fail
                while fail is not root and token not in fail.children:
                    fail = fail.fail
                target = fail.children.get(token)
                child.fail = target if target is not None else root
                child.out = (
                    child.fail if child.fail.candidate is not None
                    else child.fail.out
                )
                child.chain_len = child.fail.chain_len + 1
                queue.append(child)
        self._built_version = self.trie.version


__all__ = ["AutomatonMatchEngine", "ScanMatchEngine"]
