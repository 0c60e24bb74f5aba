"""Task hashing (Section 4.1): stability and analysis-sensitivity."""

import gc
import random
import weakref
from collections import Counter
from collections.abc import MutableMapping, MutableSequence, MutableSet

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.hashing as hashing
import repro.runtime.task as task_module
from repro.api import open_session
from repro.core.hashing import TaskHasher, stable_hash
from repro.runtime.privilege import Privilege
from repro.runtime.region import RegionForest
from repro.runtime.runtime import Runtime
from repro.runtime.task import RegionRequirement, Task, task
from repro.trace.corpus import CORPUS_CONFIG

RO = Privilege.READ_ONLY
WD = Privilege.WRITE_DISCARD
#: The paper's ``batchsize``: the bound a processor gives its hasher.
CAPACITY = 5000


class TestStableHash:
    def test_deterministic(self):
        v = ("DOT", ((3, "read_only", ("value",), None),))
        assert stable_hash(v) == stable_hash(v)

    def test_known_regression_value(self):
        # Guards cross-version stability (distributed nodes must agree).
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_distinguishes_structure(self):
        assert stable_hash(("a", ("b",))) != stable_hash((("a", "b"),))
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(None) != stable_hash(0)
        assert stable_hash(True) != stable_hash(1)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            stable_hash(object())

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        lambda children: st.tuples(children, children),
        max_leaves=10,
    ))
    @settings(max_examples=100, deadline=None)
    def test_64bit_range(self, value):
        h = stable_hash(value)
        assert 0 <= h < 2**64


class TestTaskHasher:
    @pytest.fixture
    def forest(self):
        return RegionForest()

    def test_same_signature_same_token(self, forest):
        r1 = forest.create_region((10,))
        r2 = forest.create_region((10,))
        hasher = TaskHasher(CAPACITY)
        a = hasher.hash_task(task("DOT", (r1, RO), (r2, WD)))
        b = hasher.hash_task(task("DOT", (r1, RO), (r2, WD)))
        assert a == b
        assert hasher.hashes_computed == 1  # second was cached

    def test_region_identity_matters(self, forest):
        """The Figure 1 property: same op on a different region is a
        different token (x1 vs x2)."""
        r, x1, x2, out = (forest.create_region((10,)) for _ in range(4))
        hasher = TaskHasher(CAPACITY)
        a = hasher.hash_task(task("DOT", (r, RO), (x1, RO), (out, WD)))
        b = hasher.hash_task(task("DOT", (r, RO), (x2, RO), (out, WD)))
        assert a != b

    def test_privilege_matters(self, forest):
        r = forest.create_region((10,))
        hasher = TaskHasher(CAPACITY)
        a = hasher.hash_task(task("T", (r, RO)))
        b = hasher.hash_task(task("T", (r, Privilege.READ_WRITE)))
        assert a != b

    def test_fields_matter(self, forest):
        r = forest.create_region((10,), fields=("u", "v"))
        hasher = TaskHasher(CAPACITY)
        a = hasher.hash_task(task("T", (r, RO, ("u",))))
        b = hasher.hash_task(task("T", (r, RO, ("v",))))
        assert a != b

    def test_scalar_args_do_not_matter(self, forest):
        """By-value fields do not affect the dependence analysis, so they
        are excluded from trace identity (like Legion's scalars): a task's
        costs and provenance leave its token alone."""
        r = forest.create_region((10,))
        hasher = TaskHasher(CAPACITY)
        a = hasher.hash_task(Task("T", [RegionRequirement(r, RO)]))
        b = hasher.hash_task(Task(
            "T", [RegionRequirement(r, RO)], exec_cost=1.0, comm_cost=2.0,
            provenance=3,
        ))
        assert a == b

    def test_cross_instance_agreement(self, forest):
        """Two hashers (two control-replicated nodes) agree on tokens."""
        r1 = forest.create_region((10,))
        r2 = forest.create_region((10,))
        t = task("T", (r1, RO), (r2, WD))
        assert TaskHasher(CAPACITY).hash_task(t) == \
            TaskHasher(CAPACITY).hash_task(t)


# ----------------------------------------------------------------------
# The route to the token: interned requirement signatures and cached
# per-requirement encodings must be invisible in every *value*.
# ----------------------------------------------------------------------
FIELDS = ("u", "v", "w")
NUM_REGIONS = 4

names = st.one_of(
    st.just(""),
    st.text(max_size=12),
    st.text(min_size=300, max_size=400),
)
requirement_specs = st.tuples(
    st.integers(0, NUM_REGIONS - 1),
    st.sampled_from(list(Privilege)),
    st.none() | st.frozensets(st.sampled_from(FIELDS)),
    st.none() | st.sampled_from(["sum", "max"]),
)


def fresh_regions():
    forest = RegionForest()
    return [forest.create_region((8,), fields=FIELDS) for _ in range(NUM_REGIONS)]


def build(regions, name, specs):
    return Task(name, [
        RegionRequirement(regions[index], privilege, fields, redop)
        for index, privilege, fields, redop in specs
    ])


def reference_signature(regions, name, specs):
    """The signature as the pre-interning code built it."""
    return (name, tuple(
        (
            regions[index].uid,
            privilege.value,
            tuple(sorted(regions[index].fields if fields is None else fields)),
            redop,
        )
        for index, privilege, fields, redop in specs
    ))


class TestTokenRoute:
    @given(names, st.lists(requirement_specs, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_token_and_signature_equal_the_reference(self, name, specs):
        regions = fresh_regions()
        launched = build(regions, name, specs)
        expected = reference_signature(regions, name, specs)
        assert launched.signature() == expected
        assert TaskHasher(CAPACITY).hash_task(launched) == stable_hash(expected)

    @given(st.sampled_from([1, 2, 7]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_bounded_cache_moves_no_token(self, capacity, data):
        """Past its capacity the cache is cleared and refilled: every
        token still equals the reference, the cache never holds more
        than ``capacity`` signatures, and a signature hashed again after
        a clear is counted as computed again."""
        regions = fresh_regions()
        launches = data.draw(st.lists(
            st.tuples(st.sampled_from("abc"),
                      st.lists(requirement_specs, max_size=2)),
            min_size=capacity + 1, max_size=4 * capacity + 8,
        ))
        hasher = TaskHasher(capacity)
        held, computed = set(), 0  # the cache's model
        for name, specs in launches:
            launched = build(regions, name, specs)
            signature = launched.signature()
            if signature not in held:
                if len(held) >= capacity:
                    held.clear()
                held.add(signature)
                computed += 1
            assert hasher.hash_task(launched) == stable_hash(signature)
            assert len(hasher._cache) <= capacity
            assert set(hasher._cache) == held
            assert hasher.hashes_computed == computed

    @given(requirement_specs, requirement_specs)
    @settings(max_examples=200, deadline=None)
    def test_equal_requirements_share_one_signature_object(self, a, b):
        regions = fresh_regions()

        def signature(spec):
            index, privilege, fields, redop = spec
            return RegionRequirement(
                regions[index], privilege, fields, redop
            ).signature()

        assert signature(a) is signature(a)
        index, privilege, fields, redop = a
        if fields is None:
            # The default is the region's own field set, spelled out or not.
            assert signature(a) is signature((index, privilege, FIELDS, redop))
        if reference_signature(regions, "", [a]) != \
                reference_signature(regions, "", [b]):
            assert signature(a) is not signature(b)
            assert signature(a) != signature(b)

    @pytest.mark.parametrize("component", range(4))
    def test_each_component_separates_signatures(self, component):
        regions = fresh_regions()
        base = [regions[0], RO, ("u",), None]
        other = list(base)
        other[component] = (regions[1], WD, ("u", "v"), "sum")[component]
        a = RegionRequirement(*base).signature()
        b = RegionRequirement(*other).signature()
        assert a is not b and a != b
        assert a[component] != b[component]

    @given(names, names, st.lists(requirement_specs, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_cached_requirement_bytes_serve_any_task(self, first, second, specs):
        """A requirement first seen under one task name is encoded from
        the hasher's table under every other name, order and subset."""
        regions = fresh_regions()
        hasher = TaskHasher(CAPACITY)
        hasher.hash_task(build(regions, first, specs))
        table = dict(hasher._requirement_bytes)
        for name, reqs in (
            (second, specs),
            (second, specs[::-1]),
            (first, specs[:1]),
        ):
            launched = build(regions, name, reqs)
            assert hasher.hash_task(launched) == stable_hash(
                reference_signature(regions, name, reqs)
            )
        assert hasher._requirement_bytes == table  # nothing re-encoded


# ----------------------------------------------------------------------
# Count guards (where a clock would otherwise go) and table lifetimes.
# ----------------------------------------------------------------------
def novel_stream(count, num_regions=64, seed=11):
    """``count`` launches that never repeat over random region pairs --
    the shape of the benchmark's ``irregular_novel`` workload -- each
    built when it is asked for."""
    rng = random.Random(seed)
    forest = RegionForest()
    regions = [forest.create_region((64,)) for _ in range(num_regions)]
    for i in range(count):
        src, dst = rng.sample(regions, 2)
        yield Task(f"NOVEL_{i}", [
            RegionRequirement(src, RO),
            RegionRequirement(dst, Privilege.READ_WRITE),
        ])


def distinct_requirement_signatures(stream):
    return {
        req.signature() for launched in stream for req in launched.requirements
    }


@pytest.mark.perf_smoke
def test_a_miss_encodes_the_name_and_joins_cached_requirements(monkeypatch):
    encodes, sorts = [], []
    encode = hashing._encode
    monkeypatch.setattr(
        hashing, "_encode", lambda value: encodes.append(1) or encode(value)
    )
    monkeypatch.setattr(
        task_module, "sorted",
        lambda values: sorts.append(1) or sorted(values), raising=False,
    )
    stream = list(novel_stream(2000))
    hasher = TaskHasher(CAPACITY)
    tokens = [hasher.hash_task(launched) for launched in stream]
    distinct = len(distinct_requirement_signatures(stream))
    assert hasher.hashes_computed == len(stream) == len(set(tokens))
    assert distinct <= 2 * 64
    # The recursive reference enters _encode 15 times per such task.
    assert len(encodes) <= 2 * len(stream) + 8 * distinct
    assert len(sorts) <= distinct
    monkeypatch.undo()
    assert tokens == [stable_hash(t.signature()) for t in stream]


def test_tables_are_sized_by_the_working_set_and_owned_by_instances():
    stream = list(novel_stream(10_000))
    hasher = TaskHasher(CAPACITY)
    for launched in stream:
        hasher.hash_task(launched)
        assert len(hasher._cache) <= CAPACITY
    assert set(hasher._requirement_bytes) == \
        distinct_requirement_signatures(stream)
    # Every task missed; the bound cleared the cache once, at task 5,001.
    assert hasher.hashes_computed == len(stream)
    assert set(hasher._cache) == {
        launched.signature() for launched in stream[CAPACITY:]
    }
    for module in (hashing, task_module):
        shared = [
            name for name, value in vars(module).items()
            if not name.startswith("__")
            and isinstance(value, (MutableMapping, MutableSequence, MutableSet))
        ]
        assert shared == [], f"{module.__name__} keeps process-global {shared}"


def test_a_regions_signature_table_dies_with_its_forest():
    class Redop(str):
        """A weakly referenceable redop, held by the region's table."""

    forest = RegionForest()
    region = forest.create_region((8,))
    redop = Redop("sum")
    held = weakref.ref(redop)
    hasher = TaskHasher(CAPACITY)
    hasher.hash_task(Task("T", [RegionRequirement(region, Privilege.REDUCE,
                                                  redop=redop)]))
    del redop
    gc.collect()
    assert held() is not None  # the table (and the hasher's memo) hold it
    del hasher
    gc.collect()
    assert held() is not None  # the region's table alone still does
    del forest, region
    gc.collect()
    assert held() is None


# ----------------------------------------------------------------------
# The net under a wrong token: the runtime checks every replayed task's
# full signature, so a hash collision costs a fallback, never a task.
# ----------------------------------------------------------------------
def test_a_token_collision_falls_back_and_issues_every_task_once(
    monkeypatch,
):
    """``COLLIDE`` and ``STEP_3`` share a token (the replaced
    ``hash_task`` hashes one as the other), so the finder learns one
    loop from a stream whose odd iterations issue the other task. The
    runtime's trace check sees the difference, counts a mismatch and
    falls back to full analysis."""
    reference = TaskHasher.hash_task

    def colliding(self, launched):
        if launched.name == "COLLIDE":
            return stable_hash(("STEP_3", launched.signature()[1]))
        return reference(self, launched)

    monkeypatch.setattr(TaskHasher, "hash_task", colliding)
    forest = RegionForest()
    regions = [forest.create_region((8,)) for _ in range(4)]
    stream = [
        task("COLLIDE" if step == 3 and iteration % 2 else f"STEP_{step}",
             (regions[step % 4], RO), (regions[(step + 1) % 4], WD))
        for iteration in range(60) for step in range(10)
    ]
    runtime = Runtime(analysis_mode="fast", mismatch_policy="fallback",
                      keep_task_log=True)
    ends = []
    end_trace = runtime.end_trace
    monkeypatch.setattr(
        runtime, "end_trace", lambda trace_id: ends.append(end_trace(trace_id))
    )
    with open_session("collide", config=CORPUS_CONFIG,
                      runtime=runtime) as session:
        for launched in stream:
            session.submit(launched)
        session.flush()
    assert runtime.engine.mismatches > 0
    assert "aborted" in ends  # the fallback fired...
    assert runtime.engine.traces_replayed > 0  # ...on a replaying loop
    issued = Counter(record.uid for record in runtime.task_log)
    assert issued == Counter(launched.uid for launched in stream)
