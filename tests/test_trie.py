"""Candidate trie structure, and the reference pointer scan over it."""

import gc
import random

import pytest

from references import PathInsertTrie, PointerScanTrie
from repro.core.trie import CandidateTrie, TrieNode


def advance_all(trie, tokens, start=0):
    completed = []
    for i, token in enumerate(tokens, start=start):
        completed.extend(trie.advance(token, i))
    return completed


def node_at(trie, tokens):
    """The node ``tokens`` spells from the root, or ``None``."""
    node = trie.root
    for token in tokens:
        node = trie.child(node, token)
        if node is None:
            return None
    return node


def labels(trie, node):
    """``node``'s children's tokens, in enumeration order."""
    if node is trie.root:
        return list(trie.heads)
    tokens = []
    child = node.kid
    while child is not None:
        tokens.append(child.token)
        child = child.sib
    return tokens


class TestInsert:
    def test_insert_and_lookup(self):
        trie = CandidateTrie()
        c = trie.insert("abc")
        assert c.length == 3
        assert len(trie) == 1

    def test_reinsert_is_noop(self):
        trie = CandidateTrie()
        c1 = trie.insert("abc")
        c2 = trie.insert("abc")
        assert c1 is c2
        assert len(trie) == 1

    def test_find_is_the_public_dedup_lookup(self):
        trie = CandidateTrie()
        assert trie.find("abc") is None
        c = trie.insert("abc")
        assert trie.find("abc") is c
        assert trie.find(("a", "b", "c")) is c  # any iterable spelling
        assert trie.find("ab") is None  # prefixes are not the candidate

    def test_version_tracks_structural_changes(self):
        trie = CandidateTrie()
        v0 = trie.version
        c = trie.insert("ab")
        assert trie.version == v0 + 1
        assert trie.insert("ab") is c  # reinsert: no structural change
        assert trie.version == v0 + 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CandidateTrie().insert("")

    def test_deep_and_depth(self):
        trie = CandidateTrie()
        short = trie.insert("ab")
        long = trie.insert("abcd")
        node = node_at(trie, "a")
        assert node.depth == 1
        assert node.deep is long and node.deep.length == 4
        terminal = trie.child(node, "b")
        assert terminal.candidate is short
        assert terminal.depth == 2 and terminal.deep is long

class TestNodeShape:
    """One object per node: children are a sibling list (the root's are
    the ``heads`` dict), kept in insertion order."""

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_an_n_token_candidate_adds_n_nodes_and_no_dict(self, n):
        trie = CandidateTrie()
        tokens = tuple(range(1000, 1000 + n))
        # The trie's own tables start untracked (empty) and become
        # tracked by this insert; they are not new objects.
        own = {id(trie.heads), id(trie.candidates), id(trie._by_tokens)}
        gc.collect()
        gc.disable()
        try:
            before = {id(o) for o in gc.get_objects()}
            trie.insert(tokens)
            added = [type(o) for o in gc.get_objects()
                     if id(o) not in before and id(o) not in own]
        finally:
            gc.enable()
        assert added.count(TrieNode) == n
        assert added.count(dict) == 0
        assert not hasattr(trie.root, "__dict__")
        assert "children" not in TrieNode.__slots__

    def test_children_enumerate_in_insertion_order(self):
        trie = CandidateTrie()
        for tail in "zbqa":
            trie.insert("p" + tail)
            trie.insert(tail)
        assert labels(trie, node_at(trie, "p")) == list("zbqa")
        assert labels(trie, trie.root) == list("pzbqa")
        assert trie.root.kid is None  # the root's children are `heads`

    def test_deep_falls_back_to_the_first_inserted_of_equal_length(self):
        # Only a strictly longer candidate takes over `deep`, so among
        # equals insertion order decides, not token order.
        trie = CandidateTrie()
        first = trie.insert("azq")
        trie.insert("abq")
        assert labels(trie, node_at(trie, "a")) == list("zb")
        assert node_at(trie, "a").deep is first
        longest = trie.insert("amnop")
        assert node_at(trie, "a").deep is longest


def shape(trie):
    """Every node, in enumeration order: (token, depth, deep id, candidate
    id, child tokens), plus the trie's candidate ids."""
    def trace_id(candidate):
        return None if candidate is None else candidate.trace_id

    rows, stack = [], [trie.root]
    while stack:
        node = stack.pop()
        kids = labels(trie, node)
        rows.append((node.token, node.depth, trace_id(node.deep),
                     trace_id(node.candidate), kids))
        stack.extend(reversed([trie.child(node, k) for k in kids]))
    return rows, sorted(trie.candidates), trie._next_id, trie.version


@pytest.mark.parametrize("seed", range(8))
def test_one_pass_insert_builds_the_two_pass_trie(seed):
    """Shared prefixes, prefixes of candidates and re-inserts: after
    every step both inserts left the same trie, node by node."""
    rng = random.Random(seed)
    fast, slow = CandidateTrie(), PathInsertTrie()
    for _ in range(300):
        live = sorted(fast._by_tokens)
        if live and rng.random() < 0.2:
            tokens = rng.choice(live)  # a re-insert
        else:
            tokens = tuple(rng.choice("abc")
                           for _ in range(rng.randint(1, 7)))
        assert fast.insert(tokens).trace_id == slow.insert(tokens).trace_id
        assert shape(fast) == shape(slow)
    assert len(fast) > 10  # not vacuous


class TestMatching:
    """The seed's explicit pointer scan: the reference semantics the
    automaton engine is property-tested against (tests/test_matching.py)."""

    def test_simple_match(self):
        trie = PointerScanTrie()
        c = trie.insert("abc")
        completed = advance_all(trie, "xxabcyy")
        assert len(completed) == 1
        match = completed[0]
        assert match.candidate is c
        assert (match.start_index, match.end_index) == (2, 5)

    def test_overlapping_occurrences_all_reported(self):
        trie = PointerScanTrie()
        trie.insert("aa")
        completed = advance_all(trie, "aaaa")
        # matches at [0,2), [1,3), [2,4)
        assert [(m.start_index, m.end_index) for m in completed] == [
            (0, 2),
            (1, 3),
            (2, 4),
        ]

    def test_prefix_and_extension_both_complete(self):
        trie = PointerScanTrie()
        short = trie.insert("ab")
        long = trie.insert("abcd")
        completed = advance_all(trie, "abcd")
        kinds = {(m.candidate.length, m.start_index) for m in completed}
        assert kinds == {(2, 0), (4, 0)}

    def test_no_false_matches(self):
        trie = PointerScanTrie()
        trie.insert("abc")
        assert advance_all(trie, "ababab") == []

    def test_reset_pointers(self):
        trie = PointerScanTrie()
        trie.insert("abc")
        trie.advance("a", 0)
        trie.advance("b", 1)
        trie.reset_pointers()
        assert trie.advance("c", 2) == []

    def test_earliest_active_start(self):
        trie = PointerScanTrie()
        trie.insert("abc")
        trie.insert("bcx")
        assert trie.earliest_active_start() is None
        trie.advance("a", 0)
        assert trie.earliest_active_start() == 0
        trie.advance("b", 1)
        # pointer for "abc" at depth 2 plus a new pointer for "bcx" at 1
        assert trie.earliest_active_start() == 0

    def test_multiple_candidates_same_token_prefix(self):
        trie = PointerScanTrie()
        c1 = trie.insert("ab")
        c2 = trie.insert("ac")
        done = advance_all(trie, "acab")
        assert [m.candidate for m in done] == [c2, c1]

    def test_self_overlapping_candidate_periodic_stream(self):
        trie = PointerScanTrie()
        trie.insert("abab")
        completed = advance_all(trie, "ababab")
        starts = [m.start_index for m in completed]
        assert starts == [0, 2]
