"""The reader fuzz of ``tests/test_reader_fuzz.py``, deep.

Tier-1 replaces one random node of a corpus trace or a dehydrated s3d
state on a bounded example budget; this runs the same two checks (load
and re-drive, or load, hydrate and serve, raise nothing but the
document's own error type) over a budget ~20x larger, and the two config
parsers' checks (a fault spec string, a ``REPRO_*`` environment: a plan
or a config that round-trips, or a ``ValueError`` that says what was
bad) over one 10x larger. Part of the full suite (``make verify-full``),
not of tier-1.
"""

import os
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

from test_reader_fuzz import (  # noqa: E402
    ENV,
    JSON,
    SPEC,
    check_env,
    check_fault_spec,
    draw_path,
    redrive_edited_trace,
    s3d_state,
    serve_edited_state,
    traces,
)

DEEP = settings(max_examples=2000, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@DEEP
@given(data=st.data())
def test_trace_reader_fails_closed_deep(data):
    records = data.draw(st.sampled_from(traces()), label="fixture")
    redrive_edited_trace(records, draw_path(data, records),
                         data.draw(JSON, label="value"))


@DEEP
@given(data=st.data())
def test_state_reader_fails_closed_deep(data):
    payload, tail = s3d_state()
    serve_edited_state(payload, tail, draw_path(data, payload),
                       data.draw(JSON, label="value"))


DEEP_PARSERS = settings(DEEP, max_examples=5000)


@DEEP_PARSERS
@given(text=SPEC)
def test_fault_spec_parser_fails_closed_deep(text):
    check_fault_spec(text)


@DEEP_PARSERS
@given(env=ENV)
def test_env_layering_fails_closed_deep(env):
    check_env(env)
