"""Both canonical-document readers and both config parsers fail closed
(ROADMAP item 4(d)).

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
open. A random value may be a non-finite float, and the edited document
is written with plain ``json.dumps``, so ``NaN`` / ``Infinity`` reach
the reader as text.

The two config parsers get the same treatment: a ``REPRO_FAULT_PLAN``
spec string built from the real keys (the retired
``mining_overrun_rate`` included) and junk, and a ``REPRO_*``
environment built from the field variables, the retired knobs' and
junk. Each either
returns a plan or a validated config, or raises ``ValueError`` -- "bad
fault spec ..." for a spec, naming the variable (or the field it sets)
for the environment -- and every accepted config writes through
:func:`repro.canon.dumps` and reads back equal.

Tier-1 runs a bounded example budget; ``benchmarks/test_reader_fuzz_deep.py``
runs the same checks with a deep one (``make verify-full``).
"""

import json
import os
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import canon
from repro.api import ENV_PREFIX, PersistFormatError, build_config, open_session
from repro.apps.base import capture_stream
from repro.core.processor import RETIRED, ApopheniaConfig
from repro.faults import NULL_FAULT_PLAN, FaultPlan, parse_fault_spec
from repro.persist import SessionState
from repro.runtime.runtime import Runtime
from repro.trace import TraceDocument, TraceFormatError, TraceReplayHarness
from repro.trace.corpus import CORPUS_ENTRIES, corpus_path
from repro.trace.format import config_from_dict, config_to_dict, stream_digest

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

#: Any JSON value: scalars, and small lists and objects of them -- and
#: the non-finite floats that ``json`` writes and JSON does not have.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
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
    text = "".join(json.dumps(record) + "\n" for record in edited)
    try:
        TraceReplayHarness(TraceDocument.loads(text).verify()).run()
    except TraceFormatError:
        pass


def serve_edited_state(payload, tail, path, value):
    """Load ``payload`` (a dehydrated state) with the node at ``path``
    replaced by ``value`` and the digest restamped, hydrate it into a
    fresh standalone session and serve ``tail``."""
    edited = replaced(payload, path, value)
    try:
        edited["digest"] = canon.digest(edited)
    except ValueError:  # a non-finite float: the reader refuses the text
        pass
    runtime = Runtime(analysis_mode="fast", mismatch_policy="fallback",
                      keep_task_log=False)
    try:
        state = SessionState.loads(json.dumps(edited))
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


#: A number as a config parser sees it: the spellings that parse to a
#: non-finite float first, then in and out of range, and empty.
NUMBER = (
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400"])
    | st.integers(-3, 10**4).map(str) | st.floats(0, 0.6).map(repr)
    | st.floats().map(repr) | st.sampled_from(["0", "1", " 2 ", ""])
)

#: Every key the spec parser knows, the retired ones included.
SPEC_KEYS = ("seed", "mining_failure_rate", "mining_delay_rate",
             "mining_delay_ops", "fail_jobs", "drop_nodes", "streams",
             "mining_overrun_rate")

SPEC_VALUE = (
    NUMBER
    | st.tuples(NUMBER, NUMBER).map(":".join)
    | st.lists(st.tuples(NUMBER, NUMBER).map("@".join), min_size=1,
               max_size=3).map("+".join)
    | st.text(max_size=6)
)

#: ``key=value`` items over the real keys and junk ones, and junk items.
SPEC = st.lists(
    st.tuples(st.sampled_from(SPEC_KEYS) | st.text(max_size=6),
              SPEC_VALUE).map("=".join)
    | st.text(max_size=6),
    max_size=5,
).map(",".join)

FIELDS = ApopheniaConfig.field_names()

#: ``REPRO_*`` variables: one per field, the profile, one per retired
#: knob, and junk ones (which the builder ignores).
ENV = st.dictionaries(
    st.sampled_from([ENV_PREFIX + name.upper()
                     for name in FIELDS + ("profile",) + tuple(RETIRED)])
    | st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ_", max_size=8).filter(
        lambda name: name.lower() not in FIELDS + tuple(RETIRED)
        and name != "PROFILE"
    ).map(ENV_PREFIX.__add__),
    NUMBER | SPEC | st.sampled_from(["none", "True", "chaos", "service",
                                     "multi-scale", "16", "1e-4"])
    | st.text(max_size=6),
    max_size=3,
)


def assert_round_trips(config):
    """``config`` writes as canonical JSON and reads back equal."""
    fields, dropped = config_to_dict(config)
    assert dropped == []
    text = canon.dumps(fields)
    assert config_from_dict(canon.loads(text, "config", ValueError)) == config


def check_fault_spec(text):
    """A spec string parses to a plan that answers, or is a bad spec."""
    try:
        plan = parse_fault_spec(text)
    except ValueError as exc:
        assert str(exc).startswith("bad fault spec"), exc
        return
    assert plan is NULL_FAULT_PLAN or isinstance(plan, FaultPlan)
    for job_seq in range(4):
        plan.mining_fault("s", job_seq)
    assert_round_trips(ApopheniaConfig(fault_plan=text).validate())


def check_env(env):
    """An environment builds a validated config, or raises a
    ``ValueError`` that names the field one of its variables sets, the
    fault spec one names, or the variable itself (the profile's, or a
    retired knob's); junk variables are ignored, so they explain
    nothing."""
    try:
        config = build_config(env=env)
    except ValueError as exc:
        named = [var[len(ENV_PREFIX):].lower() for var in env]
        named = [name for name in named if name in FIELDS]
        named += ["bad fault spec"] * ("fault_plan" in named)
        variables = [var for var in env
                     if var[len(ENV_PREFIX):].lower() in RETIRED
                     or var == ENV_PREFIX + "PROFILE"]
        assert (any(name in str(exc).lower() for name in named)
                or any(var in str(exc) for var in variables)), (env, exc)
        return
    assert_round_trips(config)


#: Building a config costs microseconds, not a re-drive: a larger budget.
PARSERS = settings(BOUNDED, max_examples=500)


@PARSERS
@given(text=SPEC)
def test_fault_spec_parser_fails_closed(text):
    check_fault_spec(text)


@PARSERS
@given(env=ENV)
def test_env_layering_fails_closed(env):
    check_env(env)


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_a_non_finite_number_is_refused_by_its_reader(spelling):
    """One task's ``exec_cost`` in a trace, one counter in a state:
    ``json`` reads each spelling as a float, and JSON has none of them."""
    def spelled(document):
        return json.dumps(document).replace('"<here>"', spelling)

    records = traces()[0]
    at = next(i for i, record in enumerate(records) if "exec_cost" in record)
    records = replaced(records, (at, "exec_cost"), "<here>")
    with pytest.raises(TraceFormatError, match=spelling):
        TraceDocument.loads("\n".join(map(spelled, records)))
    payload, _ = s3d_state()
    state = replaced(payload, ("replayer", "counters", "tasks_seen"), "<here>")
    with pytest.raises(PersistFormatError, match=spelling):
        SessionState.loads(spelled(state))
