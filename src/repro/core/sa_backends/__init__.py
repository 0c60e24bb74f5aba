"""Suffix-array construction: the implementation and its reference.

Both are callables ``build(ranks) -> list[int]`` taking a
*rank-compressed* token array (dense non-negative ints, as produced by
:func:`repro.core.suffix_array.rank_compress`) and returning its suffix
array. Because the suffix array of a string over a totally ordered
alphabet is unique, both produce byte-identical output; the Section 5.1
distributed-agreement protocol depends on this, and the property tests
in ``tests/test_sa_backends.py`` enforce it.

``suffix_array_sais``
    Pure-Python SA-IS (suffix array by induced sorting), O(n). *The*
    implementation: what :func:`repro.core.repeats.find_repeats` and
    every processor use.
``suffix_array_doubling``
    The seed's prefix-doubling construction with per-element lambda sort
    keys, O(n log^2 n) comparisons. Kept unoptimised as the reference
    the property tests compare against.

There is no selection surface -- no config field, registry name or
environment variable. A test that wants the reference passes the
function itself (``find_repeats(tokens, backend=suffix_array_doubling)``).
"""

from repro.core.sa_backends.doubling import suffix_array_doubling
from repro.core.sa_backends.sais import suffix_array_sais

__all__ = ["suffix_array_doubling", "suffix_array_sais"]
