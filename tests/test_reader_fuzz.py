"""Both canonical-document readers fail closed (ROADMAP item 4(d)).

A corpus trace or a dehydrated s3d state has one random node -- a
record, a field, a list item, at any depth -- replaced by a random JSON
value, and its digest restamped, so the edit reaches the schema and the
reader behind it instead of stopping at the integrity check. Loading
and then using the document -- a standalone re-drive of the trace; a
hydrate of the state and the rest of its stream served -- either
succeeds or raises the document's own error type
(:class:`~repro.trace.TraceFormatError` /
:class:`~repro.persist.PersistFormatError`). A ``TypeError``,
``KeyError`` or a silently different reading is a reader that failed
open.

Tier-1 runs a bounded example budget; ``benchmarks/test_reader_fuzz_deep.py``
runs the same two checks with a deep one (``make verify-full``).
"""

import os
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import canon
from repro.api import PersistFormatError, open_session
from repro.apps.base import capture_stream
from repro.core.processor import ApopheniaConfig
from repro.persist import SessionState
from repro.runtime.runtime import Runtime
from repro.trace import TraceDocument, TraceFormatError, TraceReplayHarness
from repro.trace.corpus import CORPUS_ENTRIES, corpus_path
from repro.trace.format import stream_digest

pytestmark = [pytest.mark.trace, pytest.mark.persist]

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: The persist suite's sizing: mines and fires on both stream halves.
CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)
SPLIT = 350

#: Any JSON value: scalars, and small lists and objects of them.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def draw_path(data, value):
    """The path to a random node below ``value``'s root: one step into
    a random item, then one more at each container with probability
    3/4 (structure, not bulk, decides where an edit lands)."""
    path = ()
    while isinstance(value, (dict, list)) and value and (
            not path or data.draw(st.integers(0, 3), label="deeper")):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = data.draw(st.sampled_from(keys), label="key")
        path, value = path + (key,), value[key]
    return path


def replaced(value, path, new):
    """``value`` with the node at ``path`` replaced by ``new``; only the
    containers on the path are copied."""
    if not path:
        return new
    copy = value.copy()
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


def redrive_edited_trace(records, path, value):
    """Load and re-drive ``records`` (a parsed corpus trace) with the
    node at ``path`` replaced by ``value`` and the stream restamped."""
    edited = replaced(records, path, value)
    footer = edited[-1]
    try:
        edited[-1] = dict(footer, stream_digest=stream_digest(edited[1:-1]))
    except Exception:  # events that no longer key: nothing to restamp
        pass
    text = "".join(canon.dumps(record) + "\n" for record in edited)
    try:
        TraceReplayHarness(TraceDocument.loads(text).verify()).run()
    except TraceFormatError:
        pass


def serve_edited_state(payload, tail, path, value):
    """Load ``payload`` (a dehydrated state) with the node at ``path``
    replaced by ``value`` and the digest restamped, hydrate it into a
    fresh standalone session and serve ``tail``."""
    edited = replaced(payload, path, value)
    edited["digest"] = canon.digest(edited)
    runtime = Runtime(analysis_mode="fast", mismatch_policy="fallback",
                      keep_task_log=False)
    try:
        state = SessionState.loads(canon.dumps(edited))
        with open_session("fuzz", config=CONFIG, runtime=runtime,
                          state=state) as session:
            for iteration, task in tail:
                session.set_iteration(iteration)
                session.submit(task)
    except PersistFormatError:
        pass


# Plain cached builders, not fixtures: a fixture argument would be
# printed whole in every falsifying example.
@cache
def traces():
    """Every checked-in corpus fixture as its parsed lines."""
    return [
        [canon.loads(line, "line", ValueError)
         for line in TraceDocument.load(
             corpus_path(CORPUS_DIR, name)).dumps().splitlines()]
        for name in sorted(CORPUS_ENTRIES)
    ]


@cache
def s3d_state():
    """A dehydrated s3d session and the stream that follows it."""
    stream = capture_stream("s3d", 2 * SPLIT, task_scale=0.05)
    runtime = Runtime(analysis_mode="fast", mismatch_policy="fallback",
                      keep_task_log=False)
    with open_session("s3d", config=CONFIG, runtime=runtime) as session:
        for iteration, task in stream[:SPLIT]:
            session.set_iteration(iteration)
            session.submit(task)
        state = session.dehydrate()
    return state.payload, stream[SPLIT:]


BOUNDED = settings(max_examples=100, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@BOUNDED
@given(data=st.data())
def test_trace_reader_fails_closed(data):
    records = data.draw(st.sampled_from(traces()), label="fixture")
    redrive_edited_trace(records, draw_path(data, records),
                         data.draw(JSON, label="value"))


@BOUNDED
@given(data=st.data())
def test_state_reader_fails_closed(data):
    payload, tail = s3d_state()
    serve_edited_state(payload, tail, draw_path(data, payload),
                       data.draw(JSON, label="value"))
