"""Tasks and region requirements.

A task is the unit of work issued to the runtime. Each task carries a list
of :class:`RegionRequirement` objects stating which regions it accesses,
with which fields and privileges. Everything that can affect the dependence
analysis is part of the task's *signature*, which Apophenia hashes into the
token stream (Section 4.1 of the paper).

Signatures are values, but the route to them is shared: an application
builds a fresh ``Task`` and fresh requirements per launch, while only a
few hundred distinct ``(region, privilege, fields, redop)`` combinations
ever occur. :meth:`RegionRequirement.signature` therefore hands out one
interned tuple per combination, from a table on the region itself (so
its lifetime is the region's and nothing here is process-global), and
every holder of signatures -- the hasher's memo, trace templates, the
task log, retained tasks -- shares those tuples instead of keeping
copies. The lookup happens on the first ``signature()`` call, never in a
constructor.
"""

import itertools

from repro.runtime.privilege import Privilege

_task_uid = itertools.count()


class RegionRequirement:
    """A single region access declaration.

    Parameters
    ----------
    region:
        The :class:`~repro.runtime.region.LogicalRegion` accessed.
    privilege:
        The :class:`~repro.runtime.privilege.Privilege` requested.
    fields:
        Iterable of field names accessed; defaults to all fields of the
        region.
    redop:
        Reduction operator name when ``privilege`` is ``REDUCE``.
    """

    __slots__ = ("region", "privilege", "fields", "redop", "_signature")

    def __init__(self, region, privilege, fields=None, redop=None):
        self.region = region
        self.privilege = privilege
        self.fields = frozenset(fields) if fields is not None else region.fields
        self.redop = redop
        self._signature = None

    def signature(self):
        """A hashable value capturing everything that affects the analysis.

        ``(region uid, privilege value, sorted fields, redop)``, interned
        on the region: equal requirements return the *same* tuple, so the
        sort runs once per distinct requirement and a comparison between
        two holders of it is an identity check. Cached on the requirement
        too -- requirements are immutable after construction, and the
        serving path asks several times per task (hashing, then trace
        recording/validation).
        """
        signature = self._signature
        if signature is None:
            # ``_value_`` is the member's plain attribute; ``.value`` and
            # ``Enum.__hash__`` are Python-level calls, once per launch.
            privilege = self.privilege._value_
            table = self.region.signatures
            key = (privilege, self.fields, self.redop)
            signature = table.get(key)
            if signature is None:
                signature = table[key] = (
                    self.region.uid,
                    privilege,
                    tuple(sorted(self.fields)),
                    self.redop,
                )
            self._signature = signature
        return signature

    def __repr__(self):
        fields = ",".join(sorted(self.fields))
        return (
            f"Req({self.region.name}, {self.privilege.value}, fields=[{fields}])"
        )


class Task:
    """A task launch.

    Parameters
    ----------
    name:
        The registered task name (e.g. ``"DOT"``). Tasks with the same name
        run the same function; the name participates in the signature.
    requirements:
        List of :class:`RegionRequirement`.
    exec_cost:
        Virtual execution time of the task (seconds of simulated GPU time).
        Used by the pipeline cost model; defaults to zero for pure analysis
        experiments.
    comm_cost:
        Additional virtual communication time on the execution stage (e.g.
        halo exchanges); not part of the signature.
    scalar_args:
        Hashable tuple of by-value arguments that affect behaviour. These
        are deliberately *excluded* from the trace signature, matching
        Legion where futures/scalars do not affect the dependence analysis.
    """

    __slots__ = (
        "uid",
        "name",
        "requirements",
        "exec_cost",
        "comm_cost",
        "scalar_args",
        "provenance",
        "_signature",
    )

    def __init__(
        self,
        name,
        requirements=(),
        exec_cost=0.0,
        comm_cost=0.0,
        scalar_args=(),
        provenance=None,
    ):
        self.uid = next(_task_uid)
        self.name = name
        self.requirements = list(requirements)
        self.exec_cost = exec_cost
        self.comm_cost = comm_cost
        self.scalar_args = tuple(scalar_args)
        self.provenance = provenance
        self._signature = None

    def signature(self):
        """The hashable signature used for trace identity.

        Two task launches with equal signatures are indistinguishable to the
        dependence analysis, which is precisely the condition under which
        memoized analysis results may be replayed. Cached, like the
        requirement signatures: a task's requirements never change after
        construction.
        """
        if self._signature is None:
            self._signature = (
                self.name,
                tuple([req.signature() for req in self.requirements]),
            )
        return self._signature

    def reads(self, region):
        return any(
            req.privilege.reads and req.region.uid == region.uid
            for req in self.requirements
        )

    def writes(self, region):
        return any(
            req.privilege.writes and req.region.uid == region.uid
            for req in self.requirements
        )

    def __repr__(self):
        return f"Task({self.name}, uid={self.uid}, nreqs={len(self.requirements)})"


def task(name, *requirements, **kwargs):
    """Convenience constructor: ``task("DOT", (r, RO), (x, RO), (out, WD))``.

    Each requirement may be a :class:`RegionRequirement` or a tuple of
    ``(region, privilege)`` or ``(region, privilege, fields)``.
    """
    reqs = []
    for req in requirements:
        if isinstance(req, RegionRequirement):
            reqs.append(req)
        else:
            region, privilege = req[0], req[1]
            fields = req[2] if len(req) > 2 else None
            if not isinstance(privilege, Privilege):
                privilege = Privilege(privilege)
            reqs.append(RegionRequirement(region, privilege, fields))
    return Task(name, reqs, **kwargs)
