"""The soak guard of ``tests/test_soak.py``, deep.

Tier-1 soaks a 500-token buffer at 3,000 and 9,000 tasks; this runs the
same checks at the paper's default configuration (a 5,000-token buffer)
at 60k and 180k tasks -- the length of one benchmark round and three.
The novel stream must hold the same bounded entries at both lengths;
the learning shapes' trie and trace log are written to
``benchmarks/results/soak.txt`` and not asserted on. About ten
seconds. Part of the full suite (``make verify-full``), not of tier-1.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))

from test_soak import SHAPES, check_novel, report_shape  # noqa: E402

from repro.core.processor import ApopheniaConfig  # noqa: E402
from repro.experiments.report import format_table  # noqa: E402

TASKS = 60_000


def test_soak_holds_learned_state_only_deep(save):
    config = ApopheniaConfig()
    sizes = {"irregular_novel": check_novel(config, TASKS)}
    for name in sorted(SHAPES):
        sizes[name] = report_shape(name, config, TASKS)
    rows = [
        [name, n, *held.values()]
        for name, pair in sizes.items()
        for n, held in zip((TASKS, 3 * TASKS), pair)
    ]
    save("soak", format_table(
        ["shape", "tasks", "hasher", "finder", "trie", "trace_log"], rows,
        title="soak: entries a standalone session holds after its flush"
              " (paper-default config)",
    ))
