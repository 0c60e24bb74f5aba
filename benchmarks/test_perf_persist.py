"""Persistence-path floors: dehydrate/hydrate cost and warm-start value.

Two guards on the evict-without-forgetting machinery:

* **Spill cost**: one ``dehydrate`` + one ``hydrate_processor`` of a
  realistically-sized session (a mined s3d half-stream) must complete in
  under a millisecond each (best-of-rounds). The service takes this hit
  inside ``open_session``/``_evict_lru`` on the serving path, so it must
  stay far below a single mining job, or spilling would cost more than
  the re-mining it avoids.
* **Warm-start value**: a hydrated session pays **zero** re-mining jobs
  -- to its first trace fire and over the whole tail stream it is
  task-for-task and job-for-job identical to a session that was never
  evicted (79 tasks to a 39-task first fire, 225 of 350 tail tasks
  traced) -- while a cold restart of the same tail must re-learn from an
  empty trie: it fires later, on a shorter trace (89 tasks, 11 traced),
  and traces less (147). This is the quantified claim behind the spill
  tier: eviction used to cost a full re-learning phase; now it costs
  one sub-millisecond round-trip.
"""

import time

import pytest

from repro.apps.base import capture_stream
from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.persist import dehydrate_processor, hydrate_processor
from repro.runtime.runtime import Runtime

#: The api/persist suite sizing: mines real candidates and fires traces.
FAST_CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)

SPLIT = 350


def _fast_runtime():
    return Runtime(
        analysis_mode="fast", mismatch_policy="fallback", keep_task_log=False
    )


def _driven(stream):
    processor = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
    for iteration, task in stream:
        processor.set_iteration(iteration)
        processor.execute_task(task)
    return processor


def _mined_processor(stream):
    processor = _driven(stream)
    processor.flush()
    return processor


@pytest.fixture(scope="module")
def stream():
    return capture_stream("s3d", 700, task_scale=0.05)


@pytest.mark.perf_smoke
def test_dehydrate_and_hydrate_are_sub_millisecond(stream):
    """Best-of-rounds floor on both halves of the spill round-trip."""
    processor = _mined_processor(stream[:SPLIT])
    state = dehydrate_processor(processor, session_id="s3d")
    assert state.num_candidates > 0  # the session really learned

    rounds = 20
    best_dehydrate = min(
        _timed(lambda: dehydrate_processor(processor, session_id="s3d"))
        for _ in range(rounds)
    )
    # Fresh targets are built off the clock: hydrate's cost is the
    # restore, not processor construction.
    targets = [
        ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
        for _ in range(rounds)
    ]
    best_hydrate = min(
        _timed(lambda t=t: hydrate_processor(t, state)) for t in targets
    )
    assert best_dehydrate < 1e-3, (
        f"dehydrate took {best_dehydrate * 1e3:.3f}ms (floor: 1ms)"
    )
    assert best_hydrate < 1e-3, (
        f"hydrate took {best_hydrate * 1e3:.3f}ms (floor: 1ms)"
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _drive_tail(processor, stream):
    """Serve ``stream`` then flush; returns ``(tasks served, tasks
    traced)`` at the first new trace fire and the tasks traced over the
    whole tail. Every fire counted must carry tasks."""
    replayer = processor.replayer
    fired, traced_at_start = replayer.traces_fired, replayer.tasks_traced
    traced = traced_at_start
    first = None
    for served, (iteration, task) in enumerate(stream, start=1):
        processor.set_iteration(iteration)
        processor.execute_task(task)
        if replayer.traces_fired > fired:
            assert replayer.tasks_traced > traced, "a fire traced no tasks"
            fired, traced = replayer.traces_fired, replayer.tasks_traced
            first = first or (served, traced - traced_at_start)
    processor.flush()
    return first, replayer.tasks_traced - traced_at_start


@pytest.mark.perf_smoke
def test_warm_start_pays_zero_remining_jobs(stream):
    """The spill tier's value, quantified on one stream and split: a
    warm start reaches its first fire task-for-task where the
    uninterrupted twin does and traces what the twin traces over the
    whole tail, job-for-job; a cold restart of the same tail must
    re-learn from an empty trie, so it fires later, on a shorter trace,
    and traces less.

    Dehydrate's own flush is the fence; the twin flushes at the same
    point.
    """
    state = dehydrate_processor(_driven(stream[:SPLIT]), session_id="s3d")
    assert state.payload["jobs"]["pending"], "fence carried no live jobs"

    warm = hydrate_processor(
        ApopheniaProcessor(_fast_runtime(), FAST_CONFIG), state
    )
    # Hydrate restored the job-id clock; it submitted no jobs itself.
    assert warm.executor.jobs_submitted == (
        state.payload["jobs"]["counters"]["jobs_submitted"])

    twin = _mined_processor(stream[:SPLIT])  # the never-evicted run
    warm_first, warm_traced = _drive_tail(warm, stream[SPLIT:])
    twin_first, twin_traced = _drive_tail(twin, stream[SPLIT:])
    assert warm_first is not None, "tail stream never fired a trace"
    assert (warm_first, warm_traced) == (twin_first, twin_traced), (
        f"warm start diverged: first fire at {warm_first}, {warm_traced} "
        f"tasks traced vs the uninterrupted twin's {twin_first}, "
        f"{twin_traced}"
    )
    assert warm.executor.jobs_submitted == twin.executor.jobs_submitted

    cold = ApopheniaProcessor(_fast_runtime(), FAST_CONFIG)
    cold_first, cold_traced = _drive_tail(cold, stream[SPLIT:])
    assert cold_first is not None, (
        "cold restart never fired -- the comparison is vacuous"
    )
    assert cold_first[0] > warm_first[0] and cold_first[1] < warm_first[1]
    assert cold_traced < warm_traced
