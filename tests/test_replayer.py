"""The trace replayer state machine on synthetic token streams."""

import pytest
from hypothesis import example, given, settings, strategies as st

from references import ScanMatchEngine
from repro.core.matching import AutomatonMatchEngine
from repro.core.repeats import Repeat
from repro.core.replayer import TraceReplayer
from repro.core.scoring import ScoringPolicy
from repro.metrics import owned_by


def _counters(replayer):
    """The replayer's decision-determined counters."""
    return tuple(getattr(replayer, name) for name in owned_by("replayer"))


class Harness:
    """Collects the replayer's output and checks ordering invariants."""

    def __init__(self, **kwargs):
        self.events = []  # ("flush"|"trace", payload)
        self.forwarded = []
        self.replayer = TraceReplayer(
            on_flush=self._flush, on_trace=self._trace, **kwargs
        )

    def _flush(self, tasks):
        self.events.append(("flush", list(tasks)))
        self.forwarded.extend(tasks)

    def _trace(self, candidate, chunk_index, tasks):
        self.events.append(("trace", candidate.tokens, list(tasks)))
        self.forwarded.extend(tasks)

    def feed(self, tokens):
        for i, token in enumerate(tokens, start=self.replayer.tasks_seen):
            # task payload == (index, token) so ordering is checkable
            self.replayer.process((i, token), token)

    def finish(self):
        self.replayer.flush_all()

    def traces(self):
        return [e for e in self.events if e[0] == "trace"]


def check_nested_fires(m):
    """Feed ``m`` copies of a short candidate under one long candidate
    the stream breaks off from, and check that the ``m`` nested fires
    each issue in stream order with every task forwarded once."""
    s = (1, 2, 3, 4, 5)
    stream = s * m + (7,)
    h = Harness()
    h.replayer.ingest([Repeat(s, [0]), Repeat(s * (m + 5) + (9,), [0])])
    h.feed(stream)
    h.finish()
    traces = h.traces()
    assert [t[1] for t in traces] == [s] * m
    assert [t[2][0][0] for t in traces] == list(range(0, 5 * m, 5))
    assert h.forwarded == list(enumerate(stream))


class TestForwardingInvariants:
    def test_no_candidates_flushes_everything_in_order(self):
        h = Harness(min_trace_length=2)
        h.feed("abcdefg")
        h.finish()
        assert [t[1] for t in h.forwarded] == list("abcdefg")
        assert not h.traces()

    def test_every_task_forwarded_exactly_once(self):
        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("ab", [0, 2])])
        h.feed("abababx" * 10)
        h.finish()
        assert [t[0] for t in h.forwarded] == list(range(70))

    def test_order_preserved_with_traces(self):
        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("bc", [0, 3])])
        h.feed("abcabcabc")
        h.finish()
        assert [t[0] for t in h.forwarded] == list(range(9))


class TestMatching:
    def test_simple_trace_fires(self):
        h = Harness(min_trace_length=3)
        h.replayer.ingest([Repeat("abc", [0, 3])])
        h.feed("abcabc")
        h.finish()
        assert len(h.traces()) == 2
        assert h.replayer.tasks_traced == 6

    def test_min_length_rejected_at_ingest(self):
        h = Harness(min_trace_length=5)
        h.replayer.ingest([Repeat("abc", [0, 3])])
        h.feed("abcabc")
        h.finish()
        assert not h.traces()
        assert h.replayer.candidates_ingested == 0

    def test_prefers_longer_candidate(self):
        h = Harness(min_trace_length=2, scoring=ScoringPolicy(decay_rate=0.0))
        h.replayer.ingest([Repeat("ab", [0, 2]), Repeat("abab", [0, 4])])
        h.feed("abababab")
        h.finish()
        lengths = [len(t[2]) for t in h.traces()]
        assert 4 in lengths  # the longer candidate wins

    def test_deferral_commits_when_extension_dies(self):
        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("ab", [0, 5]), Repeat("abcd", [0, 10])])
        h.feed("abxx")
        h.finish()
        # 'ab' completed, waited for 'abcd', which died at 'x': fires 'ab'.
        assert [t[1] for t in h.traces()] == [("a", "b")]
        assert [t[0] for t in h.forwarded] == [0, 1, 2, 3]

    def test_disjoint_match_after_deferral_is_recovered(self):
        """While 'ab' defers (hoping for 'abcd'), a later disjoint 'cd'
        completes; after the deferral dies both fire via reprocessing."""
        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("ab", [0, 5]), Repeat("abq", [0, 10]),
                           Repeat("cd", [0, 5])])
        h.feed("abcdcd")
        h.finish()
        fired = [t[1] for t in h.traces()]
        assert ("a", "b") in fired
        assert fired.count(("c", "d")) == 2

    def test_nested_fires_do_not_recurse(self):
        """A long candidate keeps every short match held until the
        stream breaks off at its end; firing the first short match
        re-feeds a tail whose own break fires the next, and so on: the
        fires nest one per short match. They once nested as Python
        frames (``RecursionError`` from m=400); 400 deep, each fires
        in stream order with every task forwarded once. The 2,000-deep
        case (~10M engine steps: the re-feeds make it quadratic) is
        ``benchmarks/test_nested_fires_deep.py``."""
        check_nested_fires(400)

    def test_occurrences_counted(self):
        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("ab", [0, 2])])
        h.feed("ababab")
        h.finish()
        cand = next(iter(h.replayer.trie.candidates.values()))
        assert cand.occurrences >= 3  # 2 seeded + online matches

    def test_seeded_occurrences_from_miner(self):
        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("ab", [0, 2, 4, 6])])
        cand = next(iter(h.replayer.trie.candidates.values()))
        assert cand.occurrences == 4


class TestChunking:
    def test_max_trace_length_chunks(self):
        h = Harness(min_trace_length=2, max_trace_length=4)
        h.replayer.ingest([Repeat("abcdefgh", [0, 8])])
        h.feed("abcdefgh" * 2)
        h.finish()
        trace_lengths = [len(t[2]) for t in h.traces()]
        assert trace_lengths == [4, 4, 4, 4]

    def test_runt_chunk_flushed(self):
        h = Harness(min_trace_length=4, max_trace_length=4)
        h.replayer.ingest([Repeat("abcdef", [0, 6])])
        h.feed("abcdef" * 2)
        h.finish()
        # 6 = 4 + 2; the 2-task runt is below min length -> flushed.
        trace_lengths = [len(t[2]) for t in h.traces()]
        assert trace_lengths == [4, 4]
        assert h.replayer.tasks_flushed >= 4

    def test_chunk_indices_stable_across_fires(self):
        chunks = []
        r = TraceReplayer(
            on_flush=lambda ts: None,
            on_trace=lambda c, i, ts: chunks.append((c.trace_id, i, len(ts))),
            min_trace_length=2,
            max_trace_length=3,
        )
        r.ingest([Repeat("abcdef", [0, 6])])
        for rep in range(2):
            for i, tok in enumerate("abcdef"):
                r.process(object(), tok)
        r.flush_all()
        assert chunks[:2] == chunks[2:4]  # same (id, chunk, len) pairs


class TestRecordedReplayedFlags:
    def test_first_fire_records_then_replays(self):
        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("ab", [0, 2])])
        h.feed("abab")
        h.finish()
        cand = next(iter(h.replayer.trie.candidates.values()))
        assert cand.recorded
        assert cand.replayed  # fired at least twice


class TestWorthWaitingEdges:
    def test_deferred_match_at_stream_head(self):
        """A match completing at the very head of the stream (start 0)
        defers while a longer candidate is live from the same head, and
        the pending buffer is not flushed past the match start."""
        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("ab", [0, 5]), Repeat("abcde", [0, 10])])
        h.feed("ab")
        assert h.replayer.deferred is not None
        assert h.replayer.deferred.start_index == 0
        assert h.replayer.policy.worth_waiting(
            h.replayer.deferred, 1, h.replayer.engine.pointers()
        )
        assert not h.forwarded  # everything still buffered
        h.feed("q")  # the extension dies: the deferral fires
        assert [t[1] for t in h.traces()] == [("a", "b")]

    def test_pointer_at_deep_length_equal_node_depth_is_ignored(self):
        """A pointer whose node's deepest candidate ends exactly at the
        node (``deep.length == node.depth``) cannot complete anything
        deeper and must not hold a deferral open."""
        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("ab", [0, 5])])
        h.feed("ab")  # completes; no longer candidate exists anywhere
        match = h.replayer.deferred
        if match is None:  # already fired: the wait correctly ended
            assert [t[1] for t in h.traces()] == [("a", "b")]
            return
        # Direct policy check with the exhausted node itself.
        trie = h.replayer.trie
        node = trie.child(trie.child(trie.root, "a"), "b")
        assert node.deep is trie.find("ab")
        assert node.deep.length == node.depth
        assert not h.replayer.policy.worth_waiting(
            match, 2, iter([(0, node)])
        )

    def test_pointer_past_match_end_breaks_scan(self):
        """Pointers starting at or beyond the match end never justify
        waiting (they consume only stream beyond the match)."""
        from repro.core.trie import CompletedMatch

        h = Harness(min_trace_length=2)
        h.replayer.ingest([Repeat("ab", [0, 5]), Repeat("abcde", [0, 10])])
        trie = h.replayer.trie
        cand = trie.find("ab")
        deep_node = trie.child(trie.root, "a")
        assert deep_node.depth == 1 and deep_node.deep is trie.find("abcde")
        match = CompletedMatch(cand, 0, 2)
        # Same node, but the pointer starts at the match end: no wait.
        assert not h.replayer.policy.worth_waiting(
            match, 2, iter([(2, deep_node)])
        )
        # One index earlier, it overlaps: wait.
        assert h.replayer.policy.worth_waiting(
            match, 2, iter([(1, deep_node)])
        )


@st.composite
def _words(draw):
    """One to three candidate strings, the later ones extending an
    earlier one: a match that is a proper prefix of a longer candidate
    is what the replayer holds."""
    words = [draw(st.text("ab", min_size=2, max_size=3))]
    for _ in range(draw(st.integers(0, 2))):
        words.append(
            draw(st.sampled_from(words)) * draw(st.integers(1, 2))
            + draw(st.text("ab", min_size=1, max_size=3))
        )
    return words


#: A token, a word to feed (non-negative) or ingest (negative), a fence.
_OPS = st.lists(
    st.one_of(st.sampled_from("ab"), st.integers(-3, 2), st.none()),
    max_size=40,
)


@pytest.mark.parametrize("engine", [AutomatonMatchEngine, ScanMatchEngine])
@settings(max_examples=200, deadline=None)
@given(words=_words(), ops=_OPS)
# Firing the held "aa" re-feeds a tail that completes and holds another.
@example(words=["aa", "aaaa"], ops=[-1, -2, 0, 1, None])
def test_a_fence_is_a_fence(engine, words, ops):
    """Tokens, ingests and fences in any order (streams made of the
    ingested words, so matches overlap and get held): a held match
    always lies inside ``pending``, a fence leaves nothing in flight (so
    a second one is a no-op), and every fire issues a real trace."""
    h = Harness(min_trace_length=2, match_engine=engine)
    replayer = h.replayer
    for op in ops:
        if op is None:
            h.finish()
            assert not replayer.pending and replayer.deferred is None
            events, counters = len(h.events), _counters(replayer)
            h.finish()
            assert len(h.events) == events
            assert _counters(replayer) == counters
        elif isinstance(op, int) and op < 0:
            word = words[op % len(words)]
            replayer.ingest([Repeat(word, [0, len(word)])])
        else:
            fed = op if isinstance(op, str) else words[op % len(words)]
            for token in fed:
                h.feed(token)
                held = replayer.deferred
                assert held is None or (
                    held.start_index >= replayer.pending[0][0]
                )
    assert all(len(tasks) >= 2 for _, _, tasks in h.traces())
    assert replayer.traces_fired == len(h.traces())
