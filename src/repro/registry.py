"""One plugin-registry pattern for every extension point.

The repo grew several ad-hoc name->implementation tables — applications
(``repro.apps.base.APP_REGISTRY``), machines, experiment runners — each
with its own lookup idiom and its own flavour of "unknown name" error. :class:`Registry` is the one
pattern behind all of them, plus the new extension points the client API
adds (tracing backends, configuration profiles):

* mapping-like, so existing call sites (``sorted(APP_REGISTRY)``,
  ``PROFILES["service"]``, ``name in PROFILES``) keep working unchanged;
* uniform registration, either imperative (``reg.register(name, obj)``)
  or as a decorator (``@reg.register(name)``);
* uniform, helpful lookup errors that name the registry's kind and list
  every known entry.

Registries are deliberately plain and synchronous: plugins register at
import time, lookups are a dict access, and iteration order is
registration order (insertion-ordered dict semantics).
"""


class RegistryError(ValueError, KeyError):
    """Unknown name looked up in a :class:`Registry`.

    Subclasses both ``ValueError`` and ``KeyError`` so pre-registry call
    sites that caught either keep working.
    """

    # KeyError.__str__ reprs its argument (useful for bare keys, noise
    # for sentences); keep the plain-message rendering.
    __str__ = Exception.__str__


class Registry:
    """An insertion-ordered name -> implementation table.

    Parameters
    ----------
    kind:
        Human-readable noun for error messages ("application",
        "tracing backend", "config profile").
    entries:
        Optional initial ``{name: implementation}`` mapping.
    """

    def __init__(self, kind, entries=None):
        self.kind = kind
        self._entries = dict(entries or {})

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name, obj=None):
        """Register ``obj`` under ``name``; usable as a decorator.

        ``reg.register("x", impl)`` registers immediately;
        ``@reg.register("x")`` registers the decorated object. Re-using a
        name is an error — plugins must be explicit about replacement
        (use ``__setitem__`` to overwrite deliberately).
        """
        if obj is None:
            return lambda decorated: self.register(name, decorated)
        if name in self._entries:
            raise ValueError(
                f"{self.kind} {name!r} is already registered"
            )
        self._entries[name] = obj
        return obj

    def __setitem__(self, name, obj):
        self._entries[name] = obj

    # ------------------------------------------------------------------
    # Lookup (mapping surface)
    # ------------------------------------------------------------------
    def get(self, name, default=None):
        return self._entries.get(name, default)

    def __getitem__(self, name):
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            ) from None

    def resolve(self, name):
        """Alias of ``__getitem__`` for call sites that read better with
        a verb (``PROFILES.resolve(profile)``)."""
        return self[name]

    def __contains__(self, name):
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def names(self):
        """Sorted names of every registered entry."""
        return sorted(self._entries)

    def items(self):
        return self._entries.items()

    def values(self):
        return self._entries.values()

    def keys(self):
        return self._entries.keys()

    def __repr__(self):
        return f"Registry({self.kind!r}, {self.names()})"


__all__ = ["Registry", "RegistryError"]
