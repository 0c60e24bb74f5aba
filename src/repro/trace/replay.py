"""Deterministic re-drive of captured traces.

:class:`TraceReplayHarness` re-issues a captured stream against any
tracing backend and checks the re-driven decision stream against the
digest stamped in the trace footer. Token identity requires more than
replaying task *names*: Apophenia's tokens hash full task signatures,
which embed region uids, so the harness first rebuilds a **shadow region
forest** from the trace's topology records -- region objects carrying
the exact recorded uids, partition kinds, and colors -- and synthesizes
every task against those shadows. Both the hasher (token values) and the
runtime's dependence analysis (paths, disjointness) then behave exactly
as in the original run.

Backend parity note: the ``replicated`` deployment's ingest coordinator
moves result ingestion from each job's local completion to the agreed
``submit + margin`` point -- deployment timing, not stream structure --
so a coordinated re-drive is *not* byte-identical to a standalone
capture. The harness therefore re-drives ``replicated`` in
decision-parity mode (coordination off): node 0 shares the standalone
completion model, the facade snapshot reports node 0, and the recorded
digest is reproduced exactly. Pass ``coordinate=True`` to study the
coordinated stream instead (byte-identity is then not asserted against
the capture digest).
"""

from repro.api.session import TRACING_BACKENDS, open_session
from repro.runtime.privilege import Privilege
from repro.runtime.region import LogicalRegion, Partition, RegionForest
from repro.runtime.task import RegionRequirement, Task
from repro.service.replicated import ReplicatedBackend
from repro.trace.format import TraceDocument, TraceFormatError

#: The deployments a corpus fixture is asserted against by default.
REPLAY_BACKENDS = ("standalone", "service", "replicated")


def rebuild_forest(document):
    """Rebuild the shadow region forest from a trace's topology records.

    Returns ``(forest, regions)`` where ``regions`` maps recorded uid ->
    shadow :class:`LogicalRegion`. Regions are constructed directly with
    their recorded uids (the forest's own counter is never consulted),
    so requirement signatures -- and therefore stream tokens -- are
    bit-identical to the capture.
    """
    forest = RegionForest()
    regions, partitions = {}, {}
    for record in document.topology():
        if record["record"] == "partition":
            parent = regions.get(record["region"])
            if parent is None:
                raise TraceFormatError(
                    f"partition {record['uid']} references undeclared "
                    f"region {record['region']}"
                )
            partition = Partition(
                record["uid"], parent, record["kind"], name=record["name"]
            )
            parent.partitions.append(partition)
            partitions[partition.uid] = partition
            forest.partitions[partition.uid] = partition
        else:
            parent_uid = record["partition"]
            if parent_uid is None:
                region = LogicalRegion(
                    record["uid"],
                    tuple(record["extent"]),
                    record["fields"],
                    name=record["name"],
                )
            else:
                partition = partitions.get(parent_uid)
                if partition is None:
                    raise TraceFormatError(
                        f"region {record['uid']} references undeclared "
                        f"partition {parent_uid}"
                    )
                region = LogicalRegion(
                    record["uid"],
                    tuple(record["extent"]),
                    record["fields"],
                    parent=partition,
                    color=record["color"],
                    name=record["name"],
                )
                partition.children[record["color"]] = region
            regions[region.uid] = region
            forest.regions[region.uid] = region
    return forest, regions


class ReplayVerdict:
    """Outcome of one re-drive: parity verdict plus the session gauges."""

    __slots__ = (
        "backend",
        "matched",
        "actual_digest",
        "tasks",
        "stats",
    )

    def __init__(self, backend, matched, actual_digest, tasks, stats):
        self.backend = backend
        self.matched = matched
        self.actual_digest = actual_digest
        self.tasks = tasks
        self.stats = stats

    def __bool__(self):
        return self.matched

    def summary(self):
        verdict = "byte-identical" if self.matched else "DIVERGED"
        return (
            f"{self.backend}: {verdict} "
            f"({self.tasks} tasks, replay {self.stats.replay_fraction:.1%}, "
            f"digest {self.actual_digest})"
        )

    def __repr__(self):
        return f"ReplayVerdict({self.backend}, matched={self.matched})"


class TraceReplayHarness:
    """Re-issues a captured trace against a backend and checks parity.

    Parameters
    ----------
    document:
        A :class:`~repro.trace.format.TraceDocument` (or a path to one).
    backend:
        A :data:`~repro.api.TRACING_BACKENDS` name or a live backend
        instance to attach to.
    config:
        Overrides the recorded config. The byte-identity assertion only
        holds for the recorded config; an override re-drives the stream
        under new knobs (a what-if experiment), and the verdict simply
        reports whether decisions happened to coincide.
    coordinate:
        Replicated deployments only: re-enable the ingest coordinator
        (see the module docstring). Off by default for decision parity.
    """

    def __init__(self, document, backend="standalone", config=None,
                 session_id=None, coordinate=False):
        if isinstance(document, (str, bytes)) or hasattr(document, "read"):
            raise TypeError(
                "pass a TraceDocument (use TraceDocument.load(path))"
            )
        self.document = document
        self.backend = backend
        self.config = config
        self.session_id = session_id
        self.coordinate = coordinate

    def _resolve_backend(self, config):
        if not isinstance(self.backend, str):
            return self.backend
        if self.backend == "replicated":
            return ReplicatedBackend(config, coordinate=self.coordinate)
        return TRACING_BACKENDS.resolve(self.backend)(config)

    def run(self):
        """Re-drive the stream; returns a :class:`ReplayVerdict`."""
        document = self.document.verify()
        config = (
            self.config.validate() if self.config is not None
            else document.config()
        )
        _, regions = rebuild_forest(document)
        backend_obj = self._resolve_backend(config)
        session_id = (
            self.session_id
            if self.session_id is not None
            else f"redrive:{document.app or document.session_id or 'trace'}"
        )
        tasks = 0
        with open_session(session_id, backend=backend_obj) as session:
            for event in document.events():
                kind = event["record"]
                if kind == "task":
                    session.submit(self._synthesize(event, regions))
                    tasks += 1
                elif kind == "iteration":
                    session.set_iteration(event["index"])
                else:
                    session.flush()
            # The recorder finalizes on a flush fence, so the recorded
            # events already end where the capture snapshot was taken.
            snapshot = session.snapshot()
            stats = session.stats()
        actual = snapshot.stable_digest()
        return ReplayVerdict(
            backend_obj.backend_kind,
            actual == document.footer["decisions_digest"], actual, tasks, stats,
        )

    @staticmethod
    def _synthesize(event, regions):
        """Build a live task against the shadow regions."""
        requirements = []
        for uid, privilege, fields, redop in event["reqs"]:
            region = regions.get(uid)
            if region is None:
                raise TraceFormatError(
                    f"task {event['name']!r} references undeclared "
                    f"region {uid}"
                )
            requirements.append(
                RegionRequirement(
                    region, Privilege(privilege), fields=fields, redop=redop
                )
            )
        return Task(
            event["name"],
            requirements,
            exec_cost=event["exec_cost"],
            comm_cost=event["comm_cost"],
        )


def replay_on_all(document, backends=REPLAY_BACKENDS, config=None):
    """Re-drive one document on each backend; ``{name: ReplayVerdict}``."""
    return {
        name: TraceReplayHarness(document, backend=name, config=config).run()
        for name in backends
    }
