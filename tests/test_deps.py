"""Dynamic dependence analysis."""

import pytest

from repro.runtime.deps import DependenceAnalyzer
from repro.runtime.privilege import Privilege
from repro.runtime.region import RegionForest
from repro.runtime.task import task

RO = Privilege.READ_ONLY
RW = Privilege.READ_WRITE
WD = Privilege.WRITE_DISCARD
RD = Privilege.REDUCE


@pytest.fixture
def forest():
    return RegionForest()


@pytest.fixture
def analyzer():
    return DependenceAnalyzer()


class TestBasicChains:
    def test_raw_chain(self, forest, analyzer):
        r = forest.create_region((10,))
        writer = task("W", (r, WD))
        reader = task("R", (r, RO))
        d1 = analyzer.analyze(writer)
        d2 = analyzer.analyze(reader)
        assert d1.depends_on == frozenset()
        assert d2.depends_on == {writer.uid}

    def test_parallel_readers(self, forest, analyzer):
        r = forest.create_region((10,))
        analyzer.analyze(task("W", (r, WD)))
        r1 = analyzer.analyze(task("R1", (r, RO)))
        r2 = analyzer.analyze(task("R2", (r, RO)))
        assert r1.depends_on == r2.depends_on  # both on the writer only

    def test_war(self, forest, analyzer):
        r = forest.create_region((10,))
        reader = task("R", (r, RO))
        writer = task("W", (r, WD))
        analyzer.analyze(reader)
        deps = analyzer.analyze(writer)
        assert deps.depends_on == {reader.uid}

    def test_waw(self, forest, analyzer):
        r = forest.create_region((10,))
        w1 = task("W1", (r, WD))
        w2 = task("W2", (r, WD))
        analyzer.analyze(w1)
        deps = analyzer.analyze(w2)
        assert deps.depends_on == {w1.uid}

    def test_dominating_write_prunes_state(self, forest, analyzer):
        r = forest.create_region((10,))
        w1 = task("W1", (r, WD))
        w2 = task("W2", (r, WD))
        r3 = task("R", (r, RO))
        analyzer.analyze(w1)
        analyzer.analyze(w2)
        deps = analyzer.analyze(r3)
        # The reader depends only on the most recent dominating writer.
        assert deps.depends_on == {w2.uid}


class TestRegions:
    def test_disjoint_subregions_parallel(self, forest, analyzer):
        r = forest.create_region((100,))
        p = forest.create_partition(r, 2)
        t0 = task("A", (p.subregion(0), WD))
        t1 = task("B", (p.subregion(1), WD))
        analyzer.analyze(t0)
        deps = analyzer.analyze(t1)
        assert deps.depends_on == frozenset()

    def test_parent_write_orders_after_children(self, forest, analyzer):
        r = forest.create_region((100,))
        p = forest.create_partition(r, 2)
        t0 = task("A", (p.subregion(0), WD))
        t1 = task("B", (p.subregion(1), WD))
        whole = task("C", (r, RW))
        analyzer.analyze(t0)
        analyzer.analyze(t1)
        deps = analyzer.analyze(whole)
        assert deps.depends_on == {t0.uid, t1.uid}

    def test_fields_independent(self, forest, analyzer):
        r = forest.create_region((100,), fields=("u", "v"))
        tu = task("U", (r, WD, ("u",)))
        tv = task("V", (r, WD, ("v",)))
        analyzer.analyze(tu)
        deps = analyzer.analyze(tv)
        assert deps.depends_on == frozenset()

    def test_field_overlap_conflicts(self, forest, analyzer):
        r = forest.create_region((100,), fields=("u", "v"))
        tu = task("U", (r, WD, ("u", "v")))
        tv = task("V", (r, RO, ("v",)))
        analyzer.analyze(tu)
        deps = analyzer.analyze(tv)
        assert deps.depends_on == {tu.uid}


class TestReductions:
    def test_same_redop_parallel(self, forest, analyzer):
        from repro.runtime.task import RegionRequirement, Task

        r = forest.create_region((10,))
        t1 = Task("R1", [RegionRequirement(r, RD, redop="sum")])
        t2 = Task("R2", [RegionRequirement(r, RD, redop="sum")])
        analyzer.analyze(t1)
        deps = analyzer.analyze(t2)
        assert deps.depends_on == frozenset()

    def test_different_redop_serializes(self, forest, analyzer):
        from repro.runtime.task import RegionRequirement, Task

        r = forest.create_region((10,))
        t1 = Task("R1", [RegionRequirement(r, RD, redop="sum")])
        t2 = Task("R2", [RegionRequirement(r, RD, redop="max")])
        analyzer.analyze(t1)
        deps = analyzer.analyze(t2)
        assert deps.depends_on == {t1.uid}

    def test_read_after_reduction(self, forest, analyzer):
        from repro.runtime.task import RegionRequirement, Task

        r = forest.create_region((10,))
        t1 = Task("R1", [RegionRequirement(r, RD, redop="sum")])
        reader = task("R", (r, RO))
        analyzer.analyze(t1)
        deps = analyzer.analyze(reader)
        assert deps.depends_on == {t1.uid}


class TestJacobiPattern:
    def test_figure1_stream_dependencies(self, forest, analyzer):
        """The DOT->SUB->DIV chain of Figure 1b forms serial iterations."""
        R = forest.create_region((64, 64), name="R")
        b = forest.create_region((64,), name="b")
        d = forest.create_region((64,), name="d")
        x1 = forest.create_region((64,), name="x1")
        x2 = forest.create_region((64,), name="x2")
        t1 = forest.create_region((64,), name="t1")
        t2 = forest.create_region((64,), name="t2")

        def iteration(xin, xout):
            dot = task("DOT", (R, RO), (xin, RO), (t1, WD))
            sub = task("SUB", (b, RO), (t1, RO), (t2, WD))
            div = task("DIV", (t2, RO), (d, RO), (xout, WD))
            return [analyzer.analyze(t) for t in (dot, sub, div)], (dot, sub, div)

        (d1, d2, d3), (dot, sub, div) = iteration(x1, x2)
        assert sub.uid in [u for u in d3.depends_on] or t2  # chain exists
        assert dot.uid in d2.depends_on
        assert sub.uid in d3.depends_on
        # Next iteration's DOT reads x2 and overwrites t1 (WAR with SUB).
        (e1, _, _), (dot2, _, _) = iteration(x2, x1)
        assert div.uid in e1.depends_on  # RAW on x2
        assert sub.uid in e1.depends_on  # WAR on t1
