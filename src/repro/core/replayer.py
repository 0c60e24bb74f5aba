"""The trace replayer (Section 4.3 and Algorithm 1, lines 10-19).

The replayer consumes the application's (task, token) stream and decides,
for every task, whether to forward it untraced, hold it as part of a
potential trace match, or issue a completed match to the runtime wrapped
in ``tbegin``/``tend``.

Since the serving-path refactor the replayer is *stream bookkeeping* over
three separable layers:

* the **match engine** (:mod:`repro.core.matching`) owns the candidate
  trie and the active pointer set -- the deduplicating automaton engine
  (the seed's explicit pointer scan survives as its test reference);
* the **candidate store** (:class:`~repro.core.candidates.CandidateStore`)
  owns candidate lifetime: admission, the rotation groups that let
  phase-shifted rediscoveries of one cycle reinforce a shared occurrence
  count, and the realized-replay records behind the scoring hysteresis;
* the **decision policy**
  (:class:`~repro.core.scoring.ReplayDecisionPolicy`) owns
  SelectReplayTrace: choosing among completions, defending the deferred
  match, deciding whether a deferral is still worth waiting on, and the
  scoring-hysteresis churn fix.

What remains here is the pending buffer, the deferral slot, and commit /
flush / chunking mechanics.

Design constraints from the paper:

* **No speculation** (Section 5.2): a trace is only issued once *all* of
  its tasks have arrived, so tasks are buffered while any active trie
  pointer could still complete a match. Because Legion's analysis phase is
  an order of magnitude more expensive than the application phase, the
  buffering is almost never exposed.
* **Exploration vs exploitation**: when several candidates match, the
  scoring policy picks; a match that is a proper prefix of a longer
  candidate is *deferred* while the longer match remains possible, and
  fired as soon as it is not.
* **Determinism**: every decision is a pure function of the token stream
  and the ingested candidate sets, so control-replicated nodes that ingest
  at agreed points make identical decisions.
"""

from collections import deque

from repro.core.candidates import CandidateStore
from repro.core.matching import AutomatonMatchEngine
from repro.core.scoring import ReplayDecisionPolicy, ScoringPolicy


class TraceReplayer:
    """Matches candidate traces against the live stream and issues them.

    Parameters
    ----------
    on_flush:
        Callback ``(tasks) -> None``: forward tasks untraced, in order.
    on_trace:
        Callback ``(candidate, chunk_index, tasks) -> None``: issue tasks
        as one trace (the processor wraps them in ``tbegin``/``tend``).
    scoring:
        :class:`~repro.core.scoring.ScoringPolicy` the
        :class:`~repro.core.scoring.ReplayDecisionPolicy` decides with.
    min_trace_length / max_trace_length:
        Candidate length bounds. Long matches are split into chunks of at
        most ``max_trace_length`` (the paper's FlexFlow auto-200
        configuration); leftover chunks shorter than ``min_trace_length``
        are flushed untraced.
    match_engine:
        Engine class (a no-argument factory). Only the parity suites
        pass anything but the default -- the ``ScanMatchEngine``
        reference of ``tests/references.py``.

    The replayer's counters (``tasks_seen`` ... ``deferrals``, the
    ``replayer``-owned fields of :class:`~repro.metrics.SessionStats`)
    are plain attributes bumped where the work happens. They are
    *decision-determined*: two runs of one stream that made the same
    tbegin/tend decisions agree on them whatever engine or deployment
    served them -- :meth:`SessionStats.replayer_counters
    <repro.metrics.SessionStats.replayer_counters>` is the one tuple
    the parity suites and snapshot digests compare.
    """

    def __init__(
        self,
        on_flush,
        on_trace,
        scoring=None,
        min_trace_length=5,
        max_trace_length=None,
        match_engine=AutomatonMatchEngine,
    ):
        self.on_flush = on_flush
        self.on_trace = on_trace
        self.policy = ReplayDecisionPolicy(scoring or ScoringPolicy())
        self.min_trace_length = min_trace_length
        self.max_trace_length = max_trace_length
        self.engine = match_engine()
        self.store = CandidateStore(self.engine, min_trace_length)
        self.pending = deque()  # (index, task, token), stream order
        self.deferred = None  # CompletedMatch being extended, or None
        # The decision-determined counters (see the class docstring);
        # ``tasks_seen`` is also the next task's stream index.
        self.tasks_seen = 0
        self.tasks_flushed = 0
        self.tasks_traced = 0
        self.traces_fired = 0
        self.candidates_ingested = 0
        self.deferrals = 0

    @property
    def scoring(self):
        """The policy's :class:`~repro.core.scoring.ScoringPolicy`."""
        return self.policy.scoring

    @property
    def trie(self):
        """The engine's :class:`~repro.core.trie.CandidateTrie`."""
        return self.engine.trie

    # ------------------------------------------------------------------
    # Candidate ingestion (IngestCandidates of Algorithm 1)
    # ------------------------------------------------------------------
    def ingest(self, repeats):
        """Ingest mined repeats as candidate traces."""
        self.candidates_ingested += self.store.ingest(repeats, self.tasks_seen)

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------
    def process(self, task, token):
        """Consume one task and its hash token."""
        index = self.tasks_seen
        self.tasks_seen += 1
        self.pending.append((index, task, token))
        match = self._advance(token, index)
        if match is not None:
            self._fire(match)

    def flush_all(self):
        """A fence: fire every held match, then flush the rest untraced.

        Firing re-feeds the pending tail, which can complete and hold
        another match; that one is complete and lies entirely inside
        ``pending`` too (no speculation), so it fires as well -- each
        fire consumes at least one buffered task, so the loop ends.
        Afterwards ``pending`` is empty, ``deferred`` is ``None`` and the
        engine is reset: what a fence leaves behind is a function of the
        stream alone, and a second call invokes no callback and moves no
        counter.
        """
        while self.deferred is not None:
            match = self.deferred
            self.deferred = None
            self._fire(match)
        if self.pending:
            self._flush_upto(self.tasks_seen)
        self.engine.reset()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self, token, index):
        """Feed one token; returns the match to fire now, or ``None``."""
        completed = self.engine.advance(token, index)
        for match in completed:
            candidate = match.candidate
            candidate.occurrences += 1
            candidate.last_seen_at = match.end_index
        return self._handle(completed, index)

    def _handle(self, completed, index):
        """One SelectReplayTrace step: ask the policy what to hold,
        release the deferral once waiting stops paying (returned for the
        caller to fire), flush what cannot match.

        The best completed match is held (one deferral slot). It is
        committed only when no overlapping active pointer could still
        complete a higher-scoring candidate; until then Apophenia keeps
        buffering. A held match displaced by a better completion is
        dropped (if disjoint, it is rediscovered when the pending tail is
        reprocessed after the winner fires).
        """
        # ``select`` with nothing completed is the incumbent: skip it.
        if completed:
            held = self.policy.select(completed, self.deferred, index)
            if held is not self.deferred:
                if self.deferred is None:
                    self.deferrals += 1
                self.deferred = held
        if self.deferred is not None and not self.policy.worth_waiting(
            self.deferred, index, self.engine.pointers()
        ):
            match = self.deferred
            self.deferred = None
            return match
        self._flush_safe_prefix()
        return None

    def _fire(self, match):
        """Commit a match: flush its prefix, issue it as a trace, reprocess
        the tail of the pending buffer -- and every match that re-feed
        fires in turn.

        A fire during a re-feed detaches the pending buffer as a tail of
        its own, fed to the end before the interrupted tail resumes: a
        stack of tails, always fed from the top, so nested fires cost a
        list entry each rather than a Python frame (a stream of short
        matches under one long candidate nests one fire per match).
        """
        tails = []
        while match is not None:
            self._flush_upto(match.start_index)
            trace_items = []
            while self.pending and self.pending[0][0] < match.end_index:
                trace_items.append(self.pending.popleft())
            tails.append(self.pending)
            self.pending = deque()
            self.store.record_fire(match.candidate)
            self._issue_trace(match.candidate, [i[1] for i in trace_items])
            self.engine.reset()
            self.traces_fired += 1
            # Reprocess the tails through the engine so matches that
            # began after the committed trace are rediscovered.
            match = None
            while match is None and tails:
                if tails[-1]:
                    item = tails[-1].popleft()
                    self.pending.append(item)
                    match = self._advance(item[2], item[0])
                else:
                    tails.pop()

    def _issue_trace(self, candidate, tasks):
        """Issue a committed match, chunking to ``max_trace_length``."""
        limit = self.max_trace_length or len(tasks)
        start = 0
        chunk_index = 0
        while start < len(tasks):
            chunk = tasks[start : start + limit]
            if len(chunk) >= self.min_trace_length:
                self.on_trace(candidate, chunk_index, chunk)
                self.tasks_traced += len(chunk)
            else:
                self.on_flush(chunk)
                self.tasks_flushed += len(chunk)
            start += limit
            chunk_index += 1
        if not candidate.recorded:
            candidate.recorded = True
        else:
            candidate.replayed = True

    def _flush_safe_prefix(self):
        """Flush pending tasks that can no longer join any match."""
        bound = self.engine.earliest_active_start()
        if self.deferred is not None:
            start = self.deferred.start_index
            bound = start if bound is None else min(bound, start)
        if bound is None:
            bound = self.tasks_seen
        if self.pending and self.pending[0][0] < bound:
            self._flush_upto(bound)

    def _flush_upto(self, bound):
        """Forward pending tasks with stream index < ``bound`` untraced."""
        batch = []
        while self.pending and self.pending[0][0] < bound:
            batch.append(self.pending.popleft()[1])
        if batch:
            self.on_flush(batch)
            self.tasks_flushed += len(batch)
            self.store.note_flushed(len(batch))
