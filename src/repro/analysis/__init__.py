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

All finders share Algorithm 2's ``(tokens, min_length) -> list[Repeat]``
interface. The ablation calls them directly (:func:`finder_comparison`);
they are not configuration -- the core runs Algorithm 2 only, and a
test that wants another finder in the pipeline passes the function to
:class:`~repro.core.jobs.JobExecutor`. They also share Algorithm 2's
rank-compression contract: each finder compresses its window to dense
integer ranks exactly once (:func:`repro.core.suffix_array.rank_compress`)
and runs its inner loops over small ints, mapping back to the original
tokens only when emitting :class:`~repro.core.repeats.Repeat` objects.
"""

from repro.analysis.lzw import find_repeats_lzw
from repro.analysis.tandem import find_tandem_repeats, tandem_repeats
from repro.analysis.quadratic import find_repeats_quadratic
from repro.analysis.metrics import finder_comparison

__all__ = [
    "find_repeats_lzw",
    "find_tandem_repeats",
    "tandem_repeats",
    "find_repeats_quadratic",
    "finder_comparison",
]
