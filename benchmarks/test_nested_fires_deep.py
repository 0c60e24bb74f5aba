"""The nested-fire case of ``tests/test_replayer.py``, deep.

Tier-1 checks 400 nested fires (the depth that once overflowed the
Python stack); this runs the same assertions 2,000 deep -- ~10M engine
steps, since each fire re-feeds the pending tail, about a minute. Part
of the full suite (``make verify-full``), not of tier-1.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

from test_replayer import check_nested_fires  # noqa: E402


def test_nested_fires_do_not_recurse_deep():
    check_nested_fires(2000)
