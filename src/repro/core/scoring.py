"""Trace selection scoring and the replay decision policy (Section 4.3).

When several candidate traces complete at the same stream position, the
replayer must pick one. The paper's scoring function balances exploration
(switching to better traces as they are discovered) against exploitation
(not abandoning a profitable steady state):

* the base score is the candidate's *length* times its *appearance count*,
  preferring long traces that eliminate more per-task analysis cost;
* the count is *capped*, so a trace that appeared many times early in the
  run can still be displaced by a better trace discovered later;
* the count is *exponentially decayed* by the number of tasks seen since
  the trace last appeared, so an infrequent but long-lived candidate does
  not slowly accumulate enough count to disrupt a steady state;
* a small multiplicative *bonus* is applied to traces that have already
  been replayed, since recording a new trace costs alpha_m per task.

**Scoring hysteresis.** Length-dominant scoring has a churn pathology on
reduced-scale streams: full-buffer candidates (up to ``batchsize/2``
tokens) whose length is *not* a whole number of stream periods outscore a
shorter candidate that replays back-to-back, and every commit of the
misaligned winner strands a phase-shift's worth of buffered tasks that
are flushed untraced. The ``hysteresis`` knob weights a candidate's score
by its *realized replay share* — the fraction of stream it actually
replays once the flushed approach gap before each of its commits is
charged to it — so a candidate that keeps paying misalignment gaps loses
to one that chains cleanly, while a candidate that has never fired keeps
its full optimistic score (exploration is untouched). ``hysteresis=0``
(the default) reproduces the paper's scoring exactly.

:class:`ReplayDecisionPolicy` is SelectReplayTrace (Algorithm 1) as a
separable layer: choosing among completed matches, defending a deferred
match, and deciding whether a deferral is still worth waiting on given
the live pointer set. The replayer owns stream bookkeeping only; every
trade-off lives here.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ScoringPolicy:
    """Parameters of the trace scoring function.

    ``count_cap`` / ``decay_rate`` / ``replay_bonus`` are the paper's
    constants; only tests pass other values. ``hysteresis`` and its
    length gate come from :meth:`ApopheniaConfig.scoring_policy`.
    """

    count_cap: int = 16
    decay_rate: float = 1e-4  # per task since last appearance
    replay_bonus: float = 1.1
    #: Strength of realized-replay-share weighting (0 disables, giving
    #: the paper's scoring byte for byte). The share enters as
    #: ``share**hysteresis``, so 1.0 charges a candidate's misalignment
    #: gap linearly and larger values punish it harder.
    hysteresis: float = 0.0
    #: Candidates shorter than this keep the paper's raw treatment even
    #: with hysteresis on. The churn pathology is specifically
    #: full-buffer-scale candidates (up to ``batchsize/2`` tokens)
    #: displacing a shorter steady state;
    #: :meth:`ApopheniaConfig.scoring_policy` derives this gate from the
    #: buffer size so short-fragment streams (whose inter-fragment noise
    #: is nobody's fault) are never discounted.
    hysteresis_min_length: int = 0

    def score(self, candidate, now_index):
        """Score a candidate at stream position ``now_index``.

        ``candidate`` must expose ``length``, ``occurrences``,
        ``last_seen_at`` and ``replayed`` (see
        :class:`repro.core.trie.TraceCandidate`).
        """
        count = min(candidate.occurrences, self.count_cap)
        if candidate.last_seen_at is not None:
            idle = max(0, now_index - candidate.last_seen_at)
            count *= math.exp(-self.decay_rate * idle)
        score = candidate.length * count
        if candidate.replayed:
            score *= self.replay_bonus
        return score

    def ceiling(self, candidate):
        """The candidate's undecayed score: :meth:`score` without the
        decay factor, with the same operations in the same order. That
        factor is at most 1 (``decay_rate >= 0``) and IEEE rounding is
        monotone, so ``score(candidate, now) <= ceiling(candidate)``
        holds exactly at every ``now``."""
        ceiling = candidate.length * min(candidate.occurrences, self.count_cap)
        if candidate.replayed:
            ceiling *= self.replay_bonus
        return ceiling

    def potential(self, candidate, now_index):
        """Optimistic score of a candidate if it were to complete now.

        Used by SelectReplayTrace to decide whether to hold a completed
        match while a longer candidate is still matching. The estimate is
        deliberately optimistic -- the candidate is scored at the full
        count cap -- making the decision length-dominant: the replayer
        always waits for a strictly more valuable trace that is live in
        the stream, which is how long multi-iteration traces win over
        their own fragments. The wait is bounded: the pointer either
        completes the candidate or dies at its first divergence.
        """
        return candidate.length * self.count_cap * self.replay_bonus

    def realized_share(self, candidate):
        """Fraction of stream this candidate replays per commit.

        A candidate that chains back-to-back has share 1; one that
        strands ``g`` buffered tasks (flushed untraced) before each
        commit of its ``L`` tasks has share ``L / (L + g)``. Candidates
        that never fired score 1 — hysteresis never discounts the
        untried.
        """
        if not candidate.fires:
            return 1.0
        length = candidate.length
        return length * candidate.fires / (
            length * candidate.fires + candidate.gap_tokens
        )

    def discount(self, candidate):
        """The hysteresis factor on a candidate's score or potential:
        ``realized_share ** hysteresis``, and ``1.0`` (exact: ``x * 1.0
        == x``) when hysteresis is off, the candidate never fired, or it
        is shorter than ``hysteresis_min_length``. Never above 1."""
        if (
            self.hysteresis
            and candidate.fires
            and candidate.length >= self.hysteresis_min_length
        ):
            return self.realized_share(candidate) ** self.hysteresis
        return 1.0

    def best(self, matches, now_index):
        """Pick the highest-scoring match; ties break to the longest, then
        the earliest start position (deterministic across nodes)."""
        if not matches:
            return None
        return max(
            matches,
            key=lambda m: (
                self.score(m.candidate, now_index),
                m.candidate.length,
                -m.start_index,
            ),
        )


class ReplayDecisionPolicy:
    """SelectReplayTrace of Algorithm 1, factored out of the replayer.

    Owns every choice the serving path makes among the completed matches
    ``D``, the deferred match, and the active potential matches ``A`` --
    the replayer keeps only stream bookkeeping (buffering, firing,
    flushing). Stateless apart from the ``hysteresis_suppressed``
    counter, so decisions stay a pure function of the token stream and
    the ingested candidate sets (the Section 5.1 agreement argument).
    """

    def __init__(self, scoring=None):
        self.scoring = scoring if scoring is not None else ScoringPolicy()
        #: Times hysteresis kept a deferral from waiting on (or a
        #: challenger from displacing toward) a candidate the paper's
        #: scoring would have chased.
        self.hysteresis_suppressed = 0

    # ------------------------------------------------------------------
    # Choosing among completions
    # ------------------------------------------------------------------
    def select(self, completed, incumbent, now_index):
        """The match to defer after this token: challenger or incumbent.

        The best completed match displaces the held one only if it
        strictly beats it; with no incumbent the best completion wins
        outright. Returns ``None`` only when both are absent.
        """
        challenger = (
            self.scoring.best(completed, now_index) if completed else None
        )
        if challenger is None:
            return incumbent
        if incumbent is None:
            return challenger
        if self._beats(challenger, incumbent, now_index):
            return challenger
        return incumbent

    def _beats(self, challenger, incumbent, now_index):
        # The challenger pays for its realized misalignment record; the
        # held match keeps its full score (displacement is never made
        # cheaper by the incumbent's own record -- hysteresis resists
        # switching, it does not invite it).
        scoring = self.scoring
        raw = scoring.score(challenger.candidate, now_index)
        cs = raw * scoring.discount(challenger.candidate)
        inc = scoring.score(incumbent.candidate, now_index)
        if cs != inc:
            if (cs > inc) != (raw > inc):
                self.hysteresis_suppressed += 1
            return cs > inc
        if challenger.candidate.length != incumbent.candidate.length:
            return challenger.candidate.length > incumbent.candidate.length
        # Equal scores and lengths: prefer consuming the stream in order.
        return challenger.start_index < incumbent.start_index

    # ------------------------------------------------------------------
    # Deferral
    # ------------------------------------------------------------------
    def worth_waiting(self, match, now_index, pointers):
        """True while some active pointer overlapping ``match``'s region
        may still complete a candidate scoring higher than ``match``.

        ``pointers`` yields ``(start_index, node)`` ascending by start
        (a match-engine's live pointer set); enumeration stops at the
        first pointer past the match's region.
        """
        # Hysteresis discounts only the speculative side, and only for
        # full-buffer-scale candidates with a realized record (see
        # ``hysteresis_min_length``): the candidate being waited *for*
        # pays for the misalignment gaps its past commits stranded,
        # while the completed match in hand keeps its full score --
        # holding is never made cheaper, only chasing. Untried
        # candidates keep the paper's optimistic potential, so
        # exploration is untouched.
        #
        # The held match's decayed score (an ``exp``) is the threshold.
        # Almost every call returns on its first pointer, whose
        # discounted potential clears even the undecayed ceiling, so the
        # threshold is computed only when a pointer does not -- the
        # answer and the suppression count are those of the decayed
        # comparison throughout.
        scoring = self.scoring
        ceiling = scoring.ceiling(match.candidate)
        threshold = None
        suppressed = False
        for start, node in pointers:
            if start >= match.end_index:
                # Pointers arrive sorted by start: every later one
                # also consumes only stream beyond the match.
                break
            deep = node.deep
            if deep.length <= node.depth:
                continue  # nothing deeper can complete from here
            potential = scoring.potential(deep, now_index)
            discounted = potential * scoring.discount(deep)
            if discounted > ceiling:
                return True
            if threshold is None:
                threshold = scoring.score(match.candidate, now_index)
            if potential <= threshold:
                continue
            if discounted > threshold:
                return True
            suppressed = True  # the paper's scoring would have waited
        if suppressed:
            self.hysteresis_suppressed += 1
        return False


__all__ = ["ReplayDecisionPolicy", "ScoringPolicy"]
