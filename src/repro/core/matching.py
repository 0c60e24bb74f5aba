"""The pointer-set match engine over the candidate trie.

The replayer's trie advance is the dominant serving cost on periodic
streams. The seed matcher keeps one explicit pointer per live match
attempt, and every stream token pays one child lookup *per pointer*. On
a periodic stream whose period divides a long candidate, pointers pile
up at every phase of the cycle — depths ``d, d-p, d-2p, ...`` down the
same path — and each token re-walks that whole ladder.

:class:`AutomatonMatchEngine` deduplicates the ladder. The live pointer
set is always a set of *suffixes* of the recent stream that are trie
paths, and every such suffix is a suffix of the longest one — so the
whole set collapses into a single automaton state (the deepest live
node) plus the trie's suffix links (``TrieNode.fail``), exactly the
Aho–Corasick construction. One token costs one child lookup (amortized)
instead of one per pointer, root dispatch is token-indexed by
construction (``CandidateTrie.heads``: a token that begins no candidate
is one failed dict probe), and completed matches fall out of the ``out``
links. Below the root a child lookup walks the node's sibling list
(``kid`` / ``sib``, see :mod:`repro.core.trie`) in place; mined tries
are almost all single-child chains, so that is one comparison.

Exactness is load-bearing: the tbegin/tend decision stream must be a
pure function of tokens + ingested candidates (Section 5.1's
distributed-agreement argument), so the automaton must equal the seed's
pointer scan *byte for byte* — including its refusal to resurrect
pointers. A suffix that failed under the trie-as-it-was must stay dead
even if a candidate ingested later makes its path valid again. The
engine therefore tracks liveness epochs: on every structural change (a
candidate actually inserted) it snapshots the currently-live
pointer starts (``_frozen``) and bumps the epoch; a chain entry is
*live* only if it was born after the last structural change or its start
is in the snapshot. ``tests/test_matching.py`` property-tests parity
against the scan reference (kept under ``tests/``, passed in as
``TraceReplayer(match_engine=...)``) on streams with mid-stream ingests
and resets.

Relinking. The links are a pure function of the candidate set; how they
are maintained is local. :meth:`AutomatonMatchEngine.insert` keeps them
current by touching only the nodes an ingest changes, through the
reverse suffix links the nodes carry (each node heads an intrusive list
of the nodes whose ``fail`` it is; the root's list is bucketed by last
token on the engine):

* a candidate ending on an existing node moves only ``out``, and only in
  that node's reverse-link subtree, stopping wherever ``out`` comes out
  unchanged;
* each new node, shallowest first, is linked by the usual goto walk from
  its parent's ``fail`` and then adopts every existing node whose longest
  trie suffix it now is (the root bucket for its token, or a walk of the
  parent's reverse-link subtree); ``out`` / ``chain_len`` are then
  recomputed over the new nodes' reverse-link subtrees, each node once.

The whole-trie BFS (:meth:`AutomatonMatchEngine._rebuild`) runs only in
bulk: once at the first :meth:`~AutomatonMatchEngine.advance` (so
construction and a hydrate's inserts pay one), after
:meth:`~AutomatonMatchEngine.unlink` (what a closed session calls, so
that its trie is a tree reference counting frees), and after the trie
was mutated behind the engine's back. Every link ends where that BFS
would put it — ``tests/test_relink.py`` checks it after every step of a
state machine — so ``chain_len`` (and with it the pointer gauges) stays
exact.

The automaton is *the* engine: there is no config field, registry name
or environment variable selecting one.
"""

from collections import deque

from repro.core.trie import CandidateTrie, CompletedMatch


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
        # The trie version the links are current for: None until the
        # first advance() links the trie in one BFS.
        self._built_version = None
        # The root's reverse suffix links: last token -> head of the list
        # of nodes whose fail is the root (None: the list emptied).
        self._root_fails = {}
        self.active_pointer_peak = 0
        self.pointer_collapses = 0

    # -- candidate-set mutation ----------------------------------------
    def insert(self, tokens):
        """Ingest a candidate; freezes liveness if the trie changes.

        On a linked trie the links are brought up to date here,
        incrementally (:meth:`_relink`); before the first advance they are
        left for that advance's one BFS. The freeze runs first, on the
        pre-mutation links. An insert only adds paths, so the relink only
        adds new nodes to a chain, and no new node is live: pointer
        enumeration still sees exactly the pre-mutation live set --
        which is the correct one.
        """
        tokens = tuple(tokens)
        trie = self.trie
        existing = trie.find(tokens)
        if existing is not None:
            return existing  # reinforcement: no structural change
        self._freeze()
        linked = self._built_version == trie.version
        candidate = trie.insert(tokens)
        if linked:
            self._relink(tokens)
            self._built_version = trie.version
        return candidate

    def find(self, tokens):
        return self.trie.find(tokens)

    # -- stream matching ------------------------------------------------
    def advance(self, token, index):
        """Advance the pointer set by one stream token.

        Returns the :class:`~repro.core.trie.CompletedMatch` list in the
        scan engine's order (ascending start index).
        """
        if self._built_version != self.trie.version:
            # The first advance, or the trie was mutated behind the
            # engine's back (insert() on the trie directly):
            # relink so matching is structurally correct. Liveness epochs
            # cannot be reconstructed for the second path — serving code
            # must mutate through the engine.
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
                matched = self.trie.heads.get(token)
                break
            # Pre-token liveness: entry of depth d was born at tick
            # (ticks-1) - d + 1 and started at stream index `index - d`.
            if (born_base - s.depth > epoch
                    or index - s.depth in frozen):
                child = s.kid
                while child is not None and child.token != token:
                    child = child.sib
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
                        node.candidate, index + 1 - node.depth, index + 1
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
            s.kid is None
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

    def unlink(self):
        """Drop every link, leaving the trie a plain tree of candidates.

        A linked trie is a web of cycles (``fail`` / ``out`` point up to
        suffixes, the reverse lists point back down), so it is freed
        only by a full collection; a closed session calls this so that
        reference counting frees it. Afterwards the engine is what a
        hydrated one is before its first advance: every candidate held,
        no link, no pointer, and the next advance relinks in one BFS.
        """
        self.reset()
        self._root_fails = {}
        self._built_version = None
        stack = list(self.trie.heads.values())
        while stack:
            node = stack.pop()
            while node is not None:
                node.fail = node.out = None
                node.fchild = node.fnext = node.fprev = None
                node.chain_len = 0
                stack.append(node.sib)
                node = node.kid

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
            if s.kid is not None and (born_base - s.depth + 1 > epoch
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
        The live set is what :meth:`pointers` yields; its generator reads
        the old ``_frozen`` before the assignment below replaces it.
        """
        self._frozen = frozenset(start for start, _ in self.pointers())
        self._epoch = self._ticks

    def _relink(self, tokens):
        """Update the links for the candidate ``tokens`` just inserted
        into a linked trie, touching only the nodes the insert changed.

        A node whose ``fail`` is ``None`` is one the insert created (every
        linked node but the root has a ``fail``). See the module
        docstring for the three steps.
        """
        root = self.trie.root
        child_of = self.trie.child
        node = root
        for i, token in enumerate(tokens):
            child = child_of(node, token)
            if child.fail is None:
                break
            node = child
        else:
            # The candidate ends on an existing node: only `out` moves.
            self._refresh(node.fchild)
            return
        fresh = []
        for token in tokens[i:]:
            parent, node = node, child_of(node, token)
            fresh.append(node)
            # 1. Link the new node: the usual goto walk, falling off the
            #    root (its fail is None) when no suffix extends by `token`.
            fail = parent.fail
            while fail is not None and child_of(fail, token) is None:
                fail = fail.fail
            fail = node.fail = root if fail is None else child_of(fail, token)
            # 2. Adopt every existing node whose longest trie suffix the
            #    new node now is: those ending in `token` that failed to
            #    the root, or else the `token` children of the parent's
            #    reverse-link subtree, walked down to the first node on
            #    each branch that has one. That child's old fail was
            #    found above the parent (nothing walked to reach it had a
            #    `token` child), so it is shallower and moves; below it,
            #    every extension already fails to it or deeper.
            if parent is root:
                adopted = node.fchild = self._root_fails.pop(token, None)
                while adopted is not None:
                    adopted.fail = node
                    adopted = adopted.fnext
            else:
                moves = []
                stack = [parent.fchild]
                while stack:
                    y = stack.pop()
                    while y is not None:
                        c = child_of(y, token)
                        if c is not None:
                            moves.append(c)
                        elif y.fchild is not None:
                            stack.append(y.fchild)
                        y = y.fnext
                for c in moves:
                    self._unlink(c, token)
                    c.fail = node
                    self._link(c, node, token)
            self._link(node, fail, token)
        # 3. out / chain_len over the new nodes' reverse-link subtrees
        #    (the adopted nodes hang in them), shallowest first. A new
        #    node still at chain_len 0 is one no earlier walk reached.
        for top in fresh:
            if not top.chain_len:
                f = top.fail
                top.chain_len = f.chain_len + 1
                top.out = f if f.candidate is not None else f.out
                self._refresh(top.fchild)

    @staticmethod
    def _refresh(head):
        """Recompute ``out`` / ``chain_len`` down the reverse-link lists
        from ``head`` (fail before the nodes that fail to it), not
        descending below a node whose values come out unchanged: nothing
        under it can change either."""
        stack = [head]
        while stack:
            x = stack.pop()
            while x is not None:
                f = x.fail
                out = f if f.candidate is not None else f.out
                chain_len = f.chain_len + 1
                if out is not x.out or chain_len != x.chain_len:
                    x.out = out
                    x.chain_len = chain_len
                    if x.fchild is not None:
                        stack.append(x.fchild)
                x = x.fnext

    def _link(self, node, fail, token):
        """Push ``node`` onto ``fail``'s reverse-link list."""
        if fail is self.trie.root:
            head = self._root_fails.get(token)
            self._root_fails[token] = node
        else:
            head = fail.fchild
            fail.fchild = node
        node.fprev = None
        node.fnext = head
        if head is not None:
            head.fprev = node

    def _unlink(self, node, token):
        """Take ``node`` off its ``fail``'s reverse-link list."""
        prev, nxt = node.fprev, node.fnext
        if nxt is not None:
            nxt.fprev = prev
        if prev is not None:
            prev.fnext = nxt
        elif node.fail is self.trie.root:
            self._root_fails[token] = nxt  # None once the bucket empties
        else:
            node.fail.fchild = nxt

    def _rebuild(self):
        """Recompute every link from scratch (BFS), reverse links included.

        O(trie); runs only in bulk (see the module docstring) -- a
        single ingest on a linked trie goes through :meth:`_relink`.
        """
        root = self.trie.root
        heads = self.trie.heads
        root.fail = root.out = None
        root.chain_len = 0
        # A depth-1 node fails to the root and is alone in its token's
        # bucket: every deeper node ending in that token fails to it or
        # below.
        buckets = self._root_fails = dict(heads)
        for child in heads.values():
            child.fail = root
            child.out = child.fchild = child.fnext = child.fprev = None
            child.chain_len = 1
        queue = deque(heads.values())
        while queue:
            node = queue.popleft()
            child = node.kid
            while child is not None:
                # The goto walk and _link, inlined over the sibling
                # lists: this loop is the whole of a hydrated session's
                # first advance.
                token = child.token
                fail = node.fail
                while fail is not root:
                    found = fail.kid
                    while found is not None and found.token != token:
                        found = found.sib
                    if found is not None:
                        break
                    fail = fail.fail
                else:
                    found = heads.get(token, root)
                fail = child.fail = found
                child.out = fail if fail.candidate is not None else fail.out
                child.chain_len = fail.chain_len + 1
                child.fchild = child.fprev = None
                if fail is root:
                    head = child.fnext = buckets.get(token)
                    buckets[token] = child
                else:
                    head = child.fnext = fail.fchild
                    fail.fchild = child
                if head is not None:
                    head.fprev = child
                queue.append(child)
                child = child.sib
        self._built_version = self.trie.version


__all__ = ["AutomatonMatchEngine"]
