"""Pluggable suffix-array construction backends.

Every backend is a callable ``build(ranks) -> list[int]`` taking a
*rank-compressed* token array (dense non-negative ints, as produced by
:func:`repro.core.suffix_array.rank_compress`) and returning its suffix
array. Because the suffix array of a string over a totally ordered
alphabet is unique, all backends produce byte-identical output; the
Section 5.1 distributed-agreement protocol depends on this, and the
property tests in ``tests/test_sa_backends.py`` enforce it.

Backends
--------
``doubling``
    The seed's prefix-doubling construction with per-element lambda sort
    keys, O(n log^2 n) comparisons. Kept as the reference implementation
    and the baseline the perf suite measures speedups against.
``sais``
    Pure-Python SA-IS (suffix array by induced sorting), O(n). The
    default.

Selection
---------
:func:`resolve_backend_name` validates an explicit name (for example
from ``ApopheniaConfig.sa_backend``), falling back to
:data:`DEFAULT_BACKEND`. This module never consults the environment:
the ``REPRO_SA_BACKEND`` variable (:data:`ENV_VAR`) is layered onto the
configuration -- with its documented environment-beats-code precedence
-- by :func:`repro.api.config.build_config`, the one place ambient
environment is read.
"""

from repro.core.sa_backends.doubling import suffix_array_doubling
from repro.core.sa_backends.sais import suffix_array_sais
from repro.registry import Registry

#: Environment variable overriding the configured backend. Consumed by
#: :func:`repro.api.config.build_config`, never read here.
ENV_VAR = "REPRO_SA_BACKEND"

#: Backend used when neither the environment nor the caller chooses.
DEFAULT_BACKEND = "sais"

#: The suffix-array construction plugin point (see :mod:`repro.registry`).
BACKENDS = Registry("suffix-array backend", {
    "doubling": suffix_array_doubling,
    "sais": suffix_array_sais,
})


def available_backends():
    """Sorted names of every registered backend."""
    return BACKENDS.names()


def resolve_backend_name(name=None):
    """Validate an explicit backend ``name``; ``None`` means the default.

    Pure function of its argument: code that constructs processors
    directly gets exactly the backend it names. Clients of
    :mod:`repro.api` get the ``REPRO_SA_BACKEND`` environment layering
    (and every other ``REPRO_*`` knob) centralized in
    :func:`repro.api.build_config`.
    """
    if name is None:
        name = DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(
            f"unknown suffix-array backend {name!r}; "
            f"known: {available_backends()}"
        )
    return name


def get_backend(name=None):
    """Return the ``build(ranks) -> suffix array`` callable for ``name``.

    ``name`` may be a backend name, ``None`` (the default backend), or an
    already-resolved callable (passed through, so call sites can accept
    either form).
    """
    if callable(name):
        return name
    return BACKENDS[resolve_backend_name(name)]


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "suffix_array_doubling",
    "suffix_array_sais",
]
