"""The automaton's suffix links against a from-scratch oracle.

``AutomatonMatchEngine.insert`` relinks incrementally: it touches only
the nodes an ingest changes, through the reverse suffix links the trie
nodes carry. The links are agreed state -- a pure function of the
candidate set, which replicas must agree on -- so the incremental path
has to leave every link exactly where a from-scratch construction puts
it. :class:`RelinkMachine` drives one engine through arbitrary
interleavings of ``insert`` (periodic rotations and multiples of one
unit, random tokens, and prefixes that branch into siblings),
``advance`` and ``reset`` and, after every step, compares every node's ``(fail, out, chain_len)`` with
links computed straight from their definitions, and checks that every
node sits in exactly its ``fail``'s reverse list.

The second half pins *when* the whole-trie BFS runs: once, at a
session's first ``advance`` (hydrated or not) -- never per ingest on
the serving path. The counts are exact; no clock
is read.

``benchmarks/test_relink_deep.py`` runs the same machine with a deep
example budget (``make verify-full``).
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.api import open_session
from repro.apps.base import capture_stream
from repro.core.matching import AutomatonMatchEngine
from repro.core.processor import ApopheniaConfig


def node_paths(trie):
    """``{path tuple: node}`` over every node of ``trie``, root = ()."""
    paths = {(): trie.root}
    stack = [((token,), node) for token, node in trie.heads.items()]
    while stack:
        path, node = stack.pop()
        assert node.token == path[-1] and node.depth == len(path)
        assert trie.child(paths[path[:-1]], path[-1]) is node
        paths[path] = node
        child = node.kid
        while child is not None:
            stack.append((path + (child.token,), child))
            child = child.sib
    return paths


def oracle_links(paths):
    """``{path: (fail path, out path, chain_len)}`` by definition: the
    fail is the longest proper suffix that is a trie path, ``out`` the
    nearest candidate-bearing node on the fail chain, ``chain_len`` the
    number of non-root nodes on the chain from the node up."""
    links = {(): (None, None, 0)}
    for path in sorted(paths, key=len):
        if not path:
            continue
        fail = next(path[i:] for i in range(1, len(path) + 1)
                    if path[i:] in paths)
        out = fail
        while out and paths[out].candidate is None:
            out = links[out][0]
        links[path] = (fail, out or None, links[fail][2] + 1)
    return links


def assert_links_exact(engine):
    """Every node's links equal the oracle's, and every non-root node is
    on exactly one reverse list: its ``fail``'s (the root's is bucketed
    by last token on the engine)."""
    root = engine.trie.root
    paths = node_paths(engine.trie)
    path_of = {id(node): path for path, node in paths.items()}

    def name(node):
        return None if node is None else path_of[id(node)]

    for path, (fail, out, chain_len) in oracle_links(paths).items():
        node = paths[path]
        got = (name(node.fail), name(node.out), node.chain_len)
        assert got == (fail, out, chain_len), path

    listed = Counter()

    def walk(head, fail, token=None):
        prev = None
        node = head
        while node is not None:
            assert node.fail is fail and node.fprev is prev
            if token is not None:
                assert path_of[id(node)][-1] == token
            listed[id(node)] += 1
            prev, node = node, node.fnext

    for token, head in engine._root_fails.items():
        walk(head, root, token)
    for node in paths.values():
        if node is not root:
            walk(node.fchild, node)
    assert root.fchild is None
    assert listed == Counter(id(n) for n in paths.values() if n is not root)


SYMBOLS = st.integers(0, 4)


class RelinkMachine(RuleBasedStateMachine):
    """One engine under arbitrary ingests, advances and resets.

    The alphabet (1-5 symbols) and a periodic unit are drawn once per
    run, so periodic candidates share prefixes and suffixes the way the
    rotations and multiples a periodic application mines do."""

    def __init__(self):
        super().__init__()
        self.engine = AutomatonMatchEngine()
        self.alphabet = 1
        self.unit = (0,)
        self.phase = 0
        self.index = 0

    @initialize(alphabet=st.integers(1, 5), data=st.data())
    def choose_alphabet(self, alphabet, data):
        self.alphabet = alphabet
        self.unit = tuple(data.draw(st.lists(
            st.integers(0, alphabet - 1), min_size=1, max_size=8,
        ), label="unit"))

    @rule(shift=st.integers(0, 7), length=st.integers(1, 40))
    def insert_periodic(self, shift, length):
        """A rotation of the unit, ``length`` tokens long: whole
        multiples and partial periods both."""
        unit = self.unit
        self.engine.insert(
            unit[(shift + i) % len(unit)] for i in range(length)
        )

    @rule(data=st.data())
    def insert_random(self, data):
        self.engine.insert(data.draw(st.lists(
            st.integers(0, self.alphabet - 1), min_size=1, max_size=40,
        ), label="tokens"))

    @rule(data=st.data())
    def insert_branching(self, data):
        """Candidates that share a prefix and then diverge, so one node
        gets several children: a cut of a held candidate when there is
        one (a cut at 0 diverges at the root), else a random prefix."""
        symbols = st.integers(0, self.alphabet - 1)
        held = sorted(self.engine.trie.candidates.values(),
                      key=lambda c: c.trace_id)
        if held:
            stem = data.draw(st.sampled_from(held), label="stem").tokens
            cut = data.draw(st.integers(0, len(stem)), label="cut")
            prefix = list(stem[:cut])
        else:
            prefix = data.draw(st.lists(symbols, max_size=20), label="prefix")
        tails = data.draw(st.lists(
            st.lists(symbols, min_size=1, max_size=6), min_size=2, max_size=4,
        ), label="tails")
        for tail in tails:
            self.engine.insert(prefix + tail)

    @rule(steps=st.integers(1, 30))
    def advance_periodic(self, steps):
        unit = self.unit
        for _ in range(steps):
            self.engine.advance(unit[self.phase % len(unit)], self.index)
            self.phase += 1
            self.index += 1

    @rule(token=SYMBOLS)
    def advance_token(self, token):
        self.engine.advance(token % self.alphabet, self.index)
        self.index += 1

    @rule()
    def reset(self):
        self.engine.reset()

    @invariant()
    def links_match_the_oracle(self):
        engine = self.engine
        if engine._built_version is None:
            return  # nothing linked before the first advance
        # Once linked, an insert keeps the links current itself.
        assert engine._built_version == engine.trie.version
        assert_links_exact(engine)


TestRelinkOracle = RelinkMachine.TestCase
TestRelinkOracle.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRelinkOracleExamples:
    """Hand-picked shapes the machine reaches only by luck."""

    def linked(self, *candidates):
        engine = AutomatonMatchEngine()
        engine.advance("z", 0)  # link the (empty) trie
        for tokens in candidates:
            engine.insert(tokens)
            assert_links_exact(engine)
        return engine

    def test_new_root_child_adopts_its_bucket(self):
        # "ba" and "ca" fail to the root until "a" exists.
        self.linked("ba", "ca", "a")

    def test_adoption_inside_the_parents_own_list(self):
        # Inserting "aa" must move "baa" (fail "a") while "ba" (also
        # fail "a") is walked on the same list.
        self.linked("baa", "a", "aa")

    def test_candidate_on_an_existing_node_moves_out_only(self):
        engine = self.linked("abcabc", "cabcab", "bcabca")
        before = {id(n): n.chain_len for n in node_paths(engine.trie).values()}
        engine.insert("abc")
        assert_links_exact(engine)
        assert before == {
            id(n): n.chain_len for n in node_paths(engine.trie).values()
        }

    def test_siblings_under_one_node(self):
        # "a" gets the children b, c, d one insert at a time, and "abd"
        # then hangs below the first of them.
        self.linked("bd", "ab", "acx", "ad", "abd", "d")

    def test_periodic_multiples_and_rotations(self):
        unit = "abcd"
        self.linked(*[(unit[s:] + unit[:s]) * m
                      for m in (2, 5, 3, 8) for s in (0, 2, 1)])


# -- the BFS is off the serving path -----------------------------------

CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)


@pytest.fixture(scope="module")
def s3d_stream():
    return capture_stream("s3d", 2000, task_scale=0.05)


@pytest.fixture
def rebuilds(monkeypatch):
    """Every ``_rebuild`` call as ``(engine, ticks, candidates)``: which
    engine, how many advances it had made, how many candidates it held."""
    calls = []
    original = AutomatonMatchEngine._rebuild

    def counted(engine):
        calls.append((engine, engine._ticks, len(engine)))
        return original(engine)

    monkeypatch.setattr(AutomatonMatchEngine, "_rebuild", counted)
    return calls


def drive(session, stream):
    for iteration, task in stream:
        session.set_iteration(iteration)
        session.submit(task)


class TestBfsOffTheServingPath:
    def test_a_session_links_once_at_its_first_advance(
        self, s3d_stream, rebuilds
    ):
        with open_session("s3d", config=CONFIG) as session:
            drive(session, s3d_stream)
            session.flush()
            engine = session.handle.processor.replayer.engine
            stats = session.stats()
        assert stats.candidates_ingested > 5 and stats.traces_fired > 0
        assert rebuilds == [(engine, 0, 0)]

    def test_a_hydrated_session_links_once(self, s3d_stream, rebuilds):
        with open_session("s3d", config=CONFIG) as session:
            drive(session, s3d_stream[:1000])
            state = session.dehydrate()
        del rebuilds[:]
        with open_session("s3d", config=CONFIG, state=state) as session:
            drive(session, s3d_stream[1000:])
            session.flush()
            engine = session.handle.processor.replayer.engine
        held = len(state.payload["candidates"])
        assert held > 0
        assert rebuilds == [(engine, 0, held)]
