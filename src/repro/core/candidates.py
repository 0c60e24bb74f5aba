"""Candidate lifecycle: ingestion, rotation groups, realized records.

Historically the :class:`~repro.core.replayer.TraceReplayer` owned all of
the learned state directly -- the rotation groups that let phase-shifted
rediscoveries of one cycle reinforce a shared occurrence count, and the
realized-replay attribution (fires / stranded gap tokens) that feeds the
scoring hysteresis. That left the learned state inseparable from the
stream bookkeeping: nothing could persist it or reason about its
lifetime without reaching into replayer internals.

:class:`CandidateStore` is that lifecycle layer, extracted. It owns

* the candidates themselves (through the match engine's trie),
* the rotation groups (``(length, canonical rotation) -> [members, count]``),
* and the realized-replay record (last fired cycle, tokens stranded since).

Candidates only arrive (Algorithm 1's IngestCandidates): a candidate
once admitted stays for the session's life, as in the paper's replayer.
"""

from repro.core.repeats import canonical_rotation


class CandidateStore:
    """Owns candidate lifetime: admission, shared counts, realized records.

    Parameters
    ----------
    engine:
        The match engine (:mod:`repro.core.matching`) whose trie holds
        the candidates. The store inserts *through* the engine so
        pointer bookkeeping stays exact.
    min_trace_length:
        Repeats shorter than this are not admitted.
    """

    def __init__(self, engine, min_trace_length):
        self.engine = engine
        self.min_trace_length = min_trace_length
        # (length, canonical rotation) -> [candidates, total count]:
        # phase-shifted rediscoveries of one cycle reinforce a shared
        # occurrence count, and at most ``max_phases_per_cycle`` rotations
        # are admitted to the trie. One phase per cycle would leave the
        # stream untraced for up to a full cycle after every misaligned
        # commit; unbounded phases would re-record the same cycle
        # endlessly (the Section 3 memoization-cost failure mode).
        self.by_rotation = {}
        self.max_phases_per_cycle = 3
        # Realized-replay attribution (scoring hysteresis): the last
        # candidate committed, and the tasks flushed untraced since. A
        # commit that leaves the stream phase-shifted strands the tokens
        # that follow it, so the *previous* choice is what a flush
        # indicts -- see :meth:`record_fire`.
        self.last_fired = None
        self.flushed_since_fire = 0
        # Nothing evicts a candidate, so this stays 0; the metric and the
        # state's key that report it are kept.
        self.candidates_evicted = 0

    @property
    def trie(self):
        """The engine's :class:`~repro.core.trie.CandidateTrie`."""
        return self.engine.trie

    # ------------------------------------------------------------------
    # Admission (IngestCandidates of Algorithm 1)
    # ------------------------------------------------------------------
    def ingest(self, repeats, now_index):
        """Admit mined repeats as candidates; returns how many were new.

        Every analysis that re-finds a candidate adds its observed
        occurrences (the scoring cap bounds the effect). This is what lets
        a long trace whose live matches are consumed by shorter replays
        accumulate enough score to displace them -- the paper's "switch
        from a trace that appeared early ... to a better trace that
        appears later".
        """
        engine = self.engine
        admitted = 0
        for repeat in repeats:
            if repeat.length < self.min_trace_length:
                continue
            # A re-discovery (the common case) reuses the key computed
            # when its candidate was admitted.
            existing = engine.find(repeat.tokens)
            if existing is not None:
                key = self.rotation_key(existing)
            else:
                key = (repeat.length, canonical_rotation(repeat.tokens))
            entry = self.by_rotation.get(key)
            if entry is None:
                entry = [[], 0]
                self.by_rotation[key] = entry
            members, _total = entry
            entry[1] += repeat.count
            if existing is None and len(members) < self.max_phases_per_cycle:
                existing = engine.insert(repeat.tokens)
                existing.rotation_key = key
                members.append(existing)
                admitted += 1
            # All phases of a cycle share the cycle's appearance count.
            for member in members:
                member.occurrences = max(member.occurrences, entry[1])
                member.last_seen_at = now_index
        return admitted

    @staticmethod
    def rotation_key(candidate):
        """The candidate's ``by_rotation`` key. Candidates admitted by
        :meth:`ingest` (or restored by ``persist`` hydrate) carry it; one
        inserted through the engine directly has it computed here, once."""
        key = candidate.rotation_key
        if key is None:
            key = candidate.rotation_key = (
                candidate.length, canonical_rotation(candidate.tokens)
            )
        return key

    # ------------------------------------------------------------------
    # Realized-replay record
    # ------------------------------------------------------------------
    def cycle_members(self, candidate):
        """The candidate's rotation-group siblings (itself included)."""
        entry = self.by_rotation.get(self.rotation_key(candidate))
        if entry is not None and candidate in entry[0]:
            return entry[0]
        return (candidate,)

    def record_fire(self, candidate):
        """Update the realized-replay record at a commit.

        The fired candidate's cycle gets one more fire; the previously
        fired cycle is charged every task flushed untraced since its
        commit -- a commit that leaves the stream phase-shifted strands
        the tokens after it, so the gap indicts the *previous* choice,
        not whichever candidate happens to fire next. Both updates apply
        to every rotation-group sibling: phases of one cycle are the
        same periodic behaviour, and a per-phase record would let a
        discounted cycle re-enter through a fresh rotation (burning one
        recording per phase). Pure bookkeeping: with hysteresis off the
        record never influences a decision.
        """
        previous = self.last_fired
        stranded = self.flushed_since_fire
        for member in self.cycle_members(candidate):
            member.fires += 1
        if previous is not None and stranded:
            for member in self.cycle_members(previous):
                member.gap_tokens += stranded
        self.last_fired = candidate
        self.flushed_since_fire = 0

    def note_flushed(self, count):
        """Record ``count`` tasks flushed untraced since the last commit."""
        self.flushed_since_fire += count
