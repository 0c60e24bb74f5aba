"""The reader fuzz of ``tests/test_reader_fuzz.py``, deep.

Tier-1 replaces one random node of a corpus trace or a dehydrated s3d
state on a bounded example budget; this runs the same two checks (load
and re-drive, or load, hydrate and serve, raise nothing but the
document's own error type) over a budget ~20x larger. Part of the full
suite (``make verify-full``), not of tier-1.
"""

import os
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

from test_reader_fuzz import (  # noqa: E402
    JSON,
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
