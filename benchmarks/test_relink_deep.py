"""The suffix-link oracle machine of ``tests/test_relink.py``, deep.

Tier-1 runs :class:`RelinkMachine` on a bounded example budget; this runs
the same rules and invariants (every node's ``(fail, out, chain_len)``
equal to the from-definition links, every node on exactly its ``fail``'s
reverse list, after every step) over a budget ~40x larger. Part of the
full suite (``make verify-full``), not of tier-1.
"""

import os
import sys

from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

from test_relink import RelinkMachine  # noqa: E402


class DeepRelinkMachine(RelinkMachine):
    """:class:`RelinkMachine` under its own (deep) settings."""


TestRelinkOracleDeep = DeepRelinkMachine.TestCase
TestRelinkOracleDeep.settings = settings(
    max_examples=1000,
    stateful_step_count=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
