"""Trace-layer perf guards: capture must be ~free, re-drive must be fast.

The recorder sits on the facade submit path (``Session.submit`` calls
``recorder.on_task`` before the backend executes), so its cost is paid
by every recorded task of every app. Two floors pin the layer:

* a perf_smoke guard: driving the same stream with a recorder attached
  costs < 75% over an unrecorded session (paired best-of rounds; the
  hook is list appends plus one signature walk per task, and the
  detached path is a single attribute check);
* a re-drive table (full benchmark run): per corpus entry on the
  standalone backend, task count and parity saved to
  ``benchmarks/results/trace_redrive.txt``, tasks/sec floored at 1000
  and printed (a wall-clock reading is not saved).
"""

import time

import pytest

from repro.api import open_session
from repro.apps.generative import PHASE_GRAPHS
from repro.trace import TraceRecorder, TraceReplayHarness
from repro.trace.corpus import CORPUS_CONFIG, generative_stream, record_stream


def _drive(stream, recorder=None):
    start = time.perf_counter()
    with open_session(
        "perf", config=CORPUS_CONFIG, recorder=recorder
    ) as session:
        current = None
        for iteration, task in stream:
            if iteration != current:
                session.set_iteration(iteration)
                current = iteration
            session.submit(task)
    return time.perf_counter() - start


@pytest.mark.perf_smoke
def test_perf_trace_capture_overhead_smoke():
    """Paired rounds, best-of: capture overhead stays a small fraction
    of the serving work it rides on."""
    stream = generative_stream(PHASE_GRAPHS["steady"], 400)
    bare, recorded = [], []
    for _ in range(5):
        bare.append(_drive(stream))
        recorded.append(_drive(stream, recorder=TraceRecorder()))
    best_bare, best_recorded = min(bare), min(recorded)
    overhead = best_recorded / best_bare - 1.0
    assert overhead < 0.75, (
        f"recorded session {best_recorded * 1e3:.1f}ms vs bare "
        f"{best_bare * 1e3:.1f}ms: capture overhead {overhead:.0%}"
    )


def test_perf_trace_redrive_throughput(save):
    """Re-drive throughput per corpus entry (standalone backend)."""
    from repro.trace.corpus import CORPUS_ENTRIES

    lines = ["entry            tasks   parity"]
    for name in sorted(CORPUS_ENTRIES):
        document = CORPUS_ENTRIES[name]()
        start = time.perf_counter()
        verdict = TraceReplayHarness(document).run()
        elapsed = time.perf_counter() - start
        rate = verdict.tasks / elapsed
        assert verdict.matched, verdict.summary()
        assert rate > 1000, f"{name}: re-drive only {rate:.0f} tasks/sec"
        lines.append(f"{name:<16} {verdict.tasks:>5}   ok")
        print(f"trace_redrive {name}: {rate:.0f} tasks/sec")
    save("trace_redrive", "\n".join(lines))


def test_perf_trace_export_parse_round_trip():
    """Serialization floor: canonical dump+parse of a 360-task capture
    stays well under a second."""
    document = record_stream(
        generative_stream(PHASE_GRAPHS["baseline"], 360), app="generative"
    )
    from repro.trace.format import TraceDocument

    start = time.perf_counter()
    for _ in range(5):
        text = document.dumps()
        TraceDocument.loads(text).verify()
    elapsed = (time.perf_counter() - start) / 5
    assert elapsed < 1.0, f"dump+parse took {elapsed:.2f}s"
