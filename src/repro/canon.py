"""Canonical documents: the one serializer under ``persist`` and ``trace``.

Dehydrated session states and trace-corpus files are digest-stamped and
compared byte-for-byte (``loads(dumps())`` round-trips, corpus re-drives,
replica state exchange), so both are written through one canonical JSON
expression -- sorted keys, minimal separators -- and read through the
same fail-closed helpers, each raising the calling package's own error
type. Lint rule RPL009 holds the line: :func:`dumps` is the only
``json.dumps`` call site the two packages may reach.
"""

import json

from repro.stablehash import stable_digest

_MISSING = object()


def dumps(value):
    """The canonical JSON text of ``value`` (byte-stable under any key
    insertion order)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def loads(text, what, error):
    """Parse JSON text; malformed input raises ``error`` naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def digest(payload):
    """Digest over the canonical ``payload``, its ``"digest"`` stamp
    excluded."""
    return stable_digest(
        dumps({k: v for k, v in payload.items() if k != "digest"})
    )


def require(mapping, field, types, kind, error, nullable=False):
    """``mapping[field]``, checked: present, and an instance of ``types``
    (or ``None`` where ``nullable``); anything else raises ``error``. A
    ``bool`` is no ``int`` here: it passes only where ``types`` names
    ``bool``."""
    value = mapping.get(field, _MISSING)
    if value is _MISSING:
        raise error(f"{kind} is missing {field!r}")
    typed = isinstance(value, types) and (
        bool in types or not isinstance(value, bool))
    if not (typed or (nullable and value is None)):
        raise error(
            f"{kind} field {field!r} must be "
            f"{'/'.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"
        )
    return value


__all__ = ["digest", "dumps", "loads", "require"]
