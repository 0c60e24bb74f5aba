"""Canonical documents: the one serializer under ``persist`` and ``trace``.

Dehydrated session states and trace-corpus files are digest-stamped and
compared byte-for-byte (``loads(dumps())`` round-trips, corpus re-drives,
replica state exchange), so both are written through one canonical JSON
expression -- sorted keys, minimal separators -- and read through the
same fail-closed helpers, each raising the calling package's own error
type. Lint rule RPL009 holds the line: :func:`dumps` is the only
``json.dumps`` call site the two packages may reach.

Both documents also declare their schema in one grammar, walked by
:func:`check` and nothing else: a type tuple, a set of allowed
strings, a named kind, or a list spec that says what a list holds. A
document that passes reaches its reader with every value of the type
the reader uses it as, so a malformed one fails closed at load.
"""

import json
from itertools import cycle

from repro.stablehash import stable_digest

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


#: The JSON scalar types, ``bool`` named so that it passes.
SCALAR = (bool, int, float, str)


def check(value, spec, schema, error):
    """``value``, checked against ``spec``; anything else raises
    ``error`` naming where it failed. A spec is one of:

    * a tuple of types -- an instance of one. A ``bool`` is no ``int``:
      it passes only where the tuple names ``bool``, and ``None`` only
      where it names ``type(None)``;
    * a frozenset -- one of these strings;
    * a name in ``schema`` -- an object ``{field: spec}`` carrying every
      field (others are ignored), or whatever other spec it names;
    * ``[spec]`` -- a list whose items all match ``spec``;
    * ``[spec, spec, ...]`` -- a row: a list of exactly that length,
      item by item.
    """
    return _walk(value, spec, schema, error, "value", None)


def _walk(value, spec, schema, error, kind, field):
    # ``kind`` / ``field`` name the place for a message; the message
    # itself is only built on the way out.
    if isinstance(spec, tuple):
        if isinstance(value, spec) and (
                bool in spec or value.__class__ is not bool):
            return value
        wanted = "/".join(t.__name__ for t in spec)
    elif isinstance(spec, frozenset):
        if isinstance(value, str) and value in spec:
            return value
        wanted = "one of " + "/".join(sorted(spec))
    elif isinstance(spec, str):
        named = schema[spec]
        if not isinstance(named, dict):
            return _walk(value, named, schema, error, spec, None)
        if not isinstance(value, dict):
            raise error(f"{spec} is not an object: {value!r:.80}")
        for name, sub in named.items():
            if name not in value:
                raise error(f"{spec} is missing {name!r}")
            _walk(value[name], sub, schema, error, spec, name)
        return value
    elif isinstance(value, list) and len(spec) in (1, len(value)):
        for item, sub in zip(value, cycle(spec)):
            _walk(item, sub, schema, error, kind, field)
        return value
    else:
        wanted = "a list" if len(spec) == 1 else f"a row of {len(spec)}"
    where = kind if field is None else f"{kind} field {field!r}"
    raise error(f"{where}: {value!r:.80} is not {wanted}")


__all__ = ["SCALAR", "check", "digest", "dumps", "loads"]
