"""Apophenia: automatic trace identification for task-based runtimes.

The subpackage implements the paper's core contribution:

* :mod:`repro.core.hashing` -- task -> token hashing (Section 4.1),
* :mod:`repro.core.suffix_array` -- suffix array + LCP construction,
* :mod:`repro.core.sa_backends` -- the suffix-array builders (SA-IS for
  short windows, NumPy prefix multiplying for long ones),
* :mod:`repro.core.repeats` -- Algorithm 2: non-overlapping repeated
  substrings with high coverage in O(n log n) (Section 4.2),
* :mod:`repro.core.trie` / :mod:`repro.core.matching` -- candidate trie
  and active-pointer matching (Section 4.3): the deduplicating automaton
  engine with incrementally maintained suffix links,
* :mod:`repro.core.scoring` -- the exploration/exploitation scoring
  function for choosing among matched traces (Section 4.3),
* :mod:`repro.core.sampler` -- ruler-function multi-scale buffer sampling
  (Section 4.4),
* :mod:`repro.core.finder` / :mod:`repro.core.replayer` -- the trace finder
  and trace replayer of Algorithm 1,
* :mod:`repro.core.processor` -- the ``ExecuteTask`` front-end that sits
  between the application and the runtime,
* :mod:`repro.core.coverage` -- the Section 3 optimization problem
  (coverage, validity, and reference solvers),
* :mod:`repro.core.coordination` -- the distributed ingestion agreement
  protocol (Section 5.1).
"""

from repro.core.processor import ApopheniaConfig, ApopheniaProcessor
from repro.core.repeats import find_repeats
from repro.core.suffix_array import suffix_array, lcp_array
from repro.core.coverage import coverage, is_valid_matching

__all__ = [
    "ApopheniaConfig",
    "ApopheniaProcessor",
    "find_repeats",
    "suffix_array",
    "lcp_array",
    "coverage",
    "is_valid_matching",
]
