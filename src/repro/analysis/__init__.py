"""Baseline trace-identification algorithms and comparison metrics.

Section 4.2 of the paper discusses several existing techniques that fall
short of Algorithm 2 and motivates its design:

* :mod:`repro.analysis.lzw` -- an LZW-style incremental dictionary builder:
  candidate repeats grow by one token per encounter, so recognizing a
  length-n trace requires seeing it ~n times.
* :mod:`repro.analysis.tandem` -- tandem repeat analysis (Sisco et al.):
  only finds substrings repeated *contiguously*, which real task streams
  break with convergence checks and other irregular operations.
* :mod:`repro.analysis.quadratic` -- a straightforward non-overlapping
  repeated-substring search with quadratic running time, used as a
  reference for output quality and to demonstrate the asymptotic gap.
* :mod:`repro.analysis.metrics` -- coverage/latency comparison helpers for
  the ablation benchmarks.

All finders share the ``(tokens, min_length) -> list[Repeat]`` interface so
they can be swapped into Apophenia via
``ApopheniaConfig(repeats_algorithm=...)``: importing this package
registers ``"lzw"`` / ``"tandem"`` / ``"quadratic"`` in
:data:`repro.core.jobs.REPEATS_ALGORITHMS` (the core itself knows
Algorithm 2 only). They also share Algorithm 2's
rank-compression contract: each finder compresses its window to dense
integer ranks exactly once (:func:`repro.core.suffix_array.rank_compress`)
and runs its inner loops over small ints, mapping back to the original
tokens only when emitting :class:`~repro.core.repeats.Repeat` objects.
"""

from repro.analysis.lzw import find_repeats_lzw
from repro.analysis.tandem import find_tandem_repeats, tandem_repeats
from repro.analysis.quadratic import find_repeats_quadratic
from repro.analysis.metrics import finder_comparison
from repro.core.jobs import REPEATS_ALGORITHMS

REPEATS_ALGORITHMS.register("lzw", find_repeats_lzw)
REPEATS_ALGORITHMS.register("tandem", find_tandem_repeats)
REPEATS_ALGORITHMS.register("quadratic", find_repeats_quadratic)

__all__ = [
    "find_repeats_lzw",
    "find_tandem_repeats",
    "tandem_repeats",
    "find_repeats_quadratic",
    "finder_comparison",
]
