"""The trace memoization engine: record, validate, replay, fall back."""

import pytest

from repro.runtime.errors import TraceMismatchError, TraceNestingError
from repro.runtime.privilege import Privilege
from repro.runtime.region import RegionForest
from repro.runtime.task import task
from repro.runtime.tracing import TracingEngine, TraceStatus

RO = Privilege.READ_ONLY
WD = Privilege.WRITE_DISCARD


@pytest.fixture
def forest():
    return RegionForest()


def make_tasks(forest, regions=None, n=3):
    regions = regions or [forest.create_region((10,)) for _ in range(n + 1)]
    return [
        task(f"T{i}", (regions[i], RO), (regions[i + 1], WD))
        for i in range(n)
    ], regions


class TestRecording:
    def test_first_execution_records(self, forest):
        engine = TracingEngine()
        tasks, _ = make_tasks(forest)
        assert engine.begin("t") is TraceStatus.RECORDING
        for t in tasks:
            engine.observe_task(t)
        kind, template = engine.end("t")
        assert kind == "recorded"
        assert template.length == 3
        assert engine.traces_recorded == 1

    def test_replay_validates_and_returns_tasks(self, forest):
        engine = TracingEngine()
        tasks, regions = make_tasks(forest)
        engine.begin("t")
        for t in tasks:
            engine.observe_task(t)
        engine.end("t")

        # Identical re-issue (same regions!) replays.
        replayed, _ = make_tasks(forest, regions)
        engine.begin("t")
        for t in replayed:
            engine.observe_task(t)
        kind, (template, buffered) = engine.end("t")
        assert kind == "replayed"
        assert buffered == replayed
        assert template.replays == 1
        assert engine.traces_replayed == 1


class TestValidation:
    def test_different_region_raises(self, forest):
        engine = TracingEngine()
        tasks, regions = make_tasks(forest)
        engine.begin("t")
        for t in tasks:
            engine.observe_task(t)
        engine.end("t")

        rogue = forest.create_region((10,))
        engine.begin("t")
        engine.observe_task(tasks[0])
        with pytest.raises(TraceMismatchError):
            engine.observe_task(task("T1", (rogue, RO), (regions[2], WD)))

    def test_different_name_raises(self, forest):
        engine = TracingEngine()
        tasks, regions = make_tasks(forest)
        engine.begin("t")
        for t in tasks:
            engine.observe_task(t)
        engine.end("t")
        engine.begin("t")
        with pytest.raises(TraceMismatchError):
            engine.observe_task(task("OTHER", (regions[0], RO), (regions[1], WD)))

    def test_truncated_replay_raises(self, forest):
        engine = TracingEngine()
        tasks, _ = make_tasks(forest)
        engine.begin("t")
        for t in tasks:
            engine.observe_task(t)
        engine.end("t")
        engine.begin("t")
        engine.observe_task(tasks[0])
        with pytest.raises(TraceMismatchError):
            engine.end("t")

    def test_overlong_replay_raises(self, forest):
        engine = TracingEngine()
        tasks, regions = make_tasks(forest)
        engine.begin("t")
        engine.observe_task(tasks[0])
        engine.end("t")
        engine.begin("t")
        engine.observe_task(tasks[0])
        with pytest.raises(TraceMismatchError):
            engine.observe_task(tasks[0])  # longer than recorded

    def test_fallback_policy_aborts_quietly(self, forest):
        engine = TracingEngine(mismatch_policy="fallback")
        tasks, regions = make_tasks(forest)
        engine.begin("t")
        for t in tasks:
            engine.observe_task(t)
        engine.end("t")
        engine.begin("t")
        engine.observe_task(tasks[0])
        rogue = task("X", (regions[0], RO), (regions[1], WD))
        status = engine.observe_task(rogue)
        assert status is TraceStatus.IDLE
        assert engine.mismatches == 1
        drained = engine.take_fallback_tasks()
        assert drained == [tasks[0]]


class TestNesting:
    def test_nested_begin_rejected(self, forest):
        engine = TracingEngine()
        engine.begin("a")
        with pytest.raises(TraceNestingError):
            engine.begin("b")

    def test_mismatched_end_rejected(self, forest):
        engine = TracingEngine()
        engine.begin("a")
        with pytest.raises(TraceNestingError):
            engine.end("b")

    def test_end_without_begin(self, forest):
        engine = TracingEngine()
        with pytest.raises(TraceNestingError):
            engine.end("a")

    def test_observe_outside_trace(self, forest):
        engine = TracingEngine()
        tasks, _ = make_tasks(forest, n=1)
        with pytest.raises(TraceNestingError):
            engine.observe_task(tasks[0])

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            TracingEngine(mismatch_policy="whatever")


class TestMultipleTraces:
    def test_independent_ids(self, forest):
        engine = TracingEngine()
        tasks, regions = make_tasks(forest)
        for trace_id in ("even", "odd"):
            engine.begin(trace_id)
            for t in tasks:
                engine.observe_task(t)
            assert engine.end(trace_id)[0] == "recorded"
        assert set(engine.templates) == {"even", "odd"}

    def test_replay_count_accumulates(self, forest):
        engine = TracingEngine()
        tasks, regions = make_tasks(forest, n=1)
        engine.begin("t")
        engine.observe_task(tasks[0])
        engine.end("t")
        for _ in range(5):
            engine.begin("t")
            engine.observe_task(tasks[0])
            engine.end("t")
        assert engine.templates["t"].replays == 5
        assert engine.traces_replayed == 5
