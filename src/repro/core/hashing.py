"""Task -> token hashing (Section 4.1).

Trace identification treats the application's task stream as a string. A
task is more than an opcode: its region arguments, fields, privileges and
reduction operators all affect the dependence analysis, so all of them must
be identical for two launches to be interchangeable inside a trace.
Apophenia therefore hashes each task's full analysis-relevant signature
into a single token, turning the stream of tasks into a stream of hashes.

Hashes are computed with BLAKE2b over a canonical encoding and truncated to
64 bits. Python's built-in ``hash`` is avoided because it is randomized per
process, and the distributed agreement protocol (Section 5.1) requires all
nodes to compute identical tokens.

Token *values* are agreed state; the route to them is local. The
reference route is ``stable_hash(task.signature())``: :func:`_encode`
walks the nested signature recursively. :class:`TaskHasher` reaches the
same bytes without the walk -- a signature is ``(name, (requirement,
...))`` and the tuple encoding is a concatenation of length-prefixed
item encodings, so a miss joins the *cached* encodings of its
requirements (a few hundred distinct ones per application, see
:meth:`repro.runtime.task.RegionRequirement.signature`) around the
encoded name. Both tables belong to the hasher instance: nothing is
process-global. The requirement table is sized by the working set; the
signature cache is bounded by a capacity (the processor passes its
history buffer's), and is cleared when a miss finds it full.
"""

import hashlib


def stable_hash(value):
    """A 64-bit stable hash of a nested tuple/str/int/None structure."""
    digest = hashlib.blake2b(_encode(value), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _encode(value):
    """Canonical byte encoding of the signature structure."""
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        return b"I" + str(value).encode()
    if isinstance(value, float):
        return b"F" + repr(value).encode()
    if isinstance(value, str):
        raw = value.encode()
        return b"S" + str(len(raw)).encode() + b":" + raw
    if isinstance(value, (tuple, list)):
        parts = [b"T", str(len(value)).encode()]
        for item in value:
            encoded = _encode(item)
            parts.append(str(len(encoded)).encode())
            parts.append(b":")
            parts.append(encoded)
        return b"".join(parts)
    if isinstance(value, frozenset):
        return _encode(tuple(sorted(value, key=repr)))
    raise TypeError(f"cannot hash value of type {type(value)!r}")


class TaskHasher:
    """Hashes tasks into the token stream, caching per-signature results.

    The cache matters for the front-end overhead budget (Section 6.3):
    steady-state iterative applications issue the same few hundred distinct
    signatures over and over, so hashing amortizes to a dict lookup. A
    stream that never repeats a task still repeats its *requirements*, so
    a miss encodes the task name only and joins per-requirement bytes
    encoded once (``_requirement_bytes``).

    On such a stream the signature cache would be the whole stream, so
    it holds at most ``capacity`` entries: a miss that finds it full
    clears it first. Clearing, not LRU, because the bound fires only
    where every lookup misses, and per-hit bookkeeping would slow every
    stream that repeats. A token is a pure function of its signature, so
    the bound moves no token and no decision.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self._cache = {}
        # requirement signature -> b"<length>:<encoding>", its tuple item.
        self._requirement_bytes = {}
        self.hashes_computed = 0

    def hash_task(self, task):
        """Return the 64-bit token for a task launch.

        Always equal to ``stable_hash(task.signature())``.
        """
        signature = task.signature()
        token = self._cache.get(signature)
        if token is None:
            digest = hashlib.blake2b(
                self._canonical_bytes(signature), digest_size=8
            ).digest()
            token = int.from_bytes(digest, "little")
            if len(self._cache) >= self.capacity:
                self._cache.clear()
            self._cache[signature] = token
            self.hashes_computed += 1
        return token

    def _canonical_bytes(self, signature):
        """``_encode(signature)``, built from the cached requirement
        encodings instead of by recursion: a tuple encodes as ``T<n>``
        followed by ``<length>:<encoding>`` per item."""
        name, requirements = signature
        known = self._requirement_bytes
        items = []
        for requirement in requirements:
            item = known.get(requirement)
            if item is None:
                encoded = _encode(requirement)
                item = known[requirement] = b"%d:%b" % (len(encoded), encoded)
            items.append(item)
        name = _encode(name)
        body = b"T%d%b" % (len(requirements), b"".join(items))
        return b"T2%d:%b%d:%b" % (len(name), name, len(body), body)
