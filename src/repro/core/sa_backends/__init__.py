"""Suffix-array construction: two implementations, one result.

The suffix array of a string over a totally ordered alphabet is unique,
so every construction here produces byte-identical output on a
*rank-compressed* token array (dense non-negative ints, as produced by
:func:`repro.core.suffix_array.rank_compress`); the Section 5.1
distributed-agreement protocol depends on this, and the property tests
in ``tests/test_sa_backends.py`` enforce it, against a naive oracle and
the seed's prefix-doubling construction (``suffix_array_doubling``, kept
unoptimised in ``tests/references.py``).

``suffix_array_sais``
    Pure-Python SA-IS (suffix array by induced sorting), O(n). What
    :func:`repro.core.repeats.find_repeats` runs on windows under its
    cutover, and on every window when ``numpy`` is not importable.
``multiplying``
    The NumPy construction ``find_repeats`` runs at and above the
    cutover: packed prefix multiplying on ``int64`` buffers, which also
    keeps the per-round keys the exact LCP is read back from
    (:mod:`repro.core.sa_backends.multiplying`).
    ``suffix_array_multiplying`` is its ``build(ranks) -> list[int]``
    form.

Which one runs is decided by the window length alone (see
``repeats.VECTOR_CUTOVER``). There is no selection surface -- no config
field, registry name or environment variable. A test that wants a
particular scalar construction passes the function itself
(``find_repeats(tokens, backend=suffix_array_doubling)``).
"""

from repro.core.sa_backends.multiplying import suffix_array_multiplying
from repro.core.sa_backends.sais import suffix_array_sais

__all__ = [
    "suffix_array_multiplying",
    "suffix_array_sais",
]
