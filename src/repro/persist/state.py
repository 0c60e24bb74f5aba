"""Versioned session-state snapshots (dehydrate / hydrate).

A :class:`SessionState` captures everything a tracing session has
*learned* -- the candidate trie, rotation groups, realized-replay
records, op clocks, pending mining jobs, and (replicated) the
coordinator's agreement margin -- as one canonically-serialized JSON
document. The service's LRU eviction dehydrates a victim tenant into
such a snapshot instead of discarding it, and re-admission hydrates, so
eviction no longer forgets.

The headline property, tested by the ``persist`` suite: a hydrated
session's subsequent decision stream is **byte-identical** to a session
that was never evicted, once its buffer state is re-established (a
dehydrate flushes, exactly as the service's eviction path always has).
Everything decision-relevant is persisted:

* the candidate trie with exact ``trace_id`` assignments (ids feed
  trace identities and scoring tie-breaks),
* rotation groups and shared occurrence totals,
* realized-replay records (fires / gap tokens / last-fired cycle),
* the finder's history buffer and op clock (the multi-scale schedule is
  read off it),
* pending mining jobs with their mined results, and the executor's
  ``jobs_submitted``, which is its job-id clock (job ids feed the
  completion-time jitter),
* the coordinator's grown margin and the agreed ingest points of
  still-pending jobs (a replicated warm start that reset the margin
  would ingest at different points: divergence).

Deliberately *not* persisted: the task hasher's memo and its
per-requirement encoding table (pure caches; the region-side signature
intern tables belong to the application's regions, not the session),
the mining memo (decision-neutral by construction), and anything in
flight -- a dehydrate flushes, and a fence
(:meth:`~repro.core.replayer.TraceReplayer.flush_all`) leaves no
buffered task, no held match and a reset engine (all liveness
arithmetic is tick-relative), so a state is *learned* state only.

Each clock is recorded once, by the counter that owns it. Older v1
documents carry copies that are ignored on load: a held match from a
tree whose fence could leave one (its tasks were already forwarded),
and ``finder.sampler`` / ``replayer.stream_index`` / ``jobs.next_job_id``,
which always equalled ``finder.ops_observed``, the replayer's
``tasks_seen`` and the executor's ``jobs_submitted``. A document whose
config slice names a retired knob at a value other than the one this
tree honours (:data:`~repro.core.processor.RETIRED`) is refused: its
learned state came from a schedule this tree cannot run.

Serialization is canonical (:mod:`repro.canon`: sorted keys, minimal
separators, one JSON document), so ``loads(dumps())`` round-trips
byte-identically. The digest stamp is a property of the *text*:
:meth:`SessionState.dumps` writes :func:`repro.canon.digest` of the
payload into the document, and the one reader behind
:meth:`SessionState.loads` and a raw-payload :func:`hydrate_processor`
checks it and strips it (tamper detection). A state built in process
(dehydrate, the service's spill tier) crosses no process boundary, so
it carries no digest and nothing computes one for it; it is not
re-validated when it is hydrated either. :class:`PersistFormatV1` is
the one schema; a document of any other version is refused. It is
written in :func:`repro.canon.check`'s grammar, the trace format's too,
and says what every list holds -- token runs, rows, ids -- so a
document whose digest checks out (anyone can restamp one) still fails
closed with :class:`PersistFormatError` at load instead of inside
hydrate or a later submit.
"""

from collections import deque

from repro import canon
from repro.core.jobs import AnalysisJob, completion_op
from repro.core.processor import ApopheniaConfig, check_recorded
from repro.core.repeats import Repeat
from repro.metrics import MARKS, owned_by, processor_owners

FORMAT_NAME = "repro-session-state"

#: What the payload's ``replayer.counters`` / ``jobs.counters`` /
#: ``gauges`` record and hydrate restores -- these names and no others,
#: whatever a document carries -- onto the replayer / the executor /
#: the match engine and decision policy: the ``restored``
#: :mod:`repro.metrics` fields those layers own, read and written
#: through :func:`~repro.metrics.processor_owners`
#: (``tasks_seen`` doubles as the replayer's stream position and
#: ``jobs_submitted`` as the executor's job-id clock).
_REPLAYER_COUNTERS = owned_by("replayer", restored=True)
_EXECUTOR_COUNTERS = owned_by("executor", restored=True)
_SERVING_GAUGES = owned_by("engine", "policy", restored=True)


def _counted(owners, names):
    """``{name: value}`` for restored metrics, off their owners."""
    return {
        name: getattr(owners[MARKS[name]["owner"]], name) for name in names
    }


def _restore(owners, names, values):
    """Write ``values[name]`` back onto each name's owner."""
    for name in names:
        setattr(owners[MARKS[name]["owner"]], name, values[name])


class PersistFormatError(ValueError):
    """A session-state document violated the schema or its digest."""


_INT, _OPT_INT = (int,), (int, type(None))

#: A candidate record: the :class:`~repro.core.trie.TraceCandidate`
#: attributes a state carries, each with its schema spec -- the one
#: declaration the schema, the snapshot and hydrate all read. Hydrate
#: re-inserts a candidate at its ``trace_id`` with its ``tokens`` and
#: copies the rest back onto it.
_CANDIDATE = {
    "trace_id": _INT, "tokens": "tokens", "occurrences": _INT,
    "last_seen_at": _OPT_INT, "fires": _INT, "gap_tokens": _INT,
    "replayed": (bool,), "recorded": (bool,),
}
_COPIED = tuple(_CANDIDATE)[2:]  # all but trace_id and tokens


class PersistFormatV1:
    """Schema v1 of the session-state document."""

    version = 1

    #: kind -> spec in :func:`repro.canon.check`'s grammar, for
    #: everything hydrate reads, down to the items of every list.
    _SCHEMA = {
        "state": {
            "format": (str,), "version": _INT,
            "session_id": (str, type(None)), "backend": (str, type(None)),
            "config": (dict,), "candidates": ["candidate"],
            "next_candidate_id": _INT, "rotations": ["rotation"],
            "replayer": "replayer", "gauges": "gauges", "finder": "finder",
            "jobs": "jobs", "coordinator": (dict, type(None)),
            "trace_log": [[[canon.SCALAR], _INT]], "digest": (str,),
        },
        "tokens": [canon.SCALAR],
        "candidate": _CANDIDATE,
        "rotation": {
            "length": _INT, "rotation": "tokens", "members": [_INT],
            "total": _INT,
        },
        "replayer": {
            "flushed_since_fire": _INT,
            "last_fired": _OPT_INT, "candidates_evicted": _INT,
            "counters": "replayer counters",
        },
        "replayer counters": dict.fromkeys(_REPLAYER_COUNTERS, _INT),
        "gauges": dict.fromkeys(_SERVING_GAUGES, _INT),
        "finder": {"buffer": "tokens", "ops_observed": _INT},
        "jobs": {"counters": "job counters", "pending": ["pending job"]},
        "job counters": dict.fromkeys(_EXECUTOR_COUNTERS, _INT),
        "pending job": {
            "job_id": _INT, "submitted_at_op": _INT, "num_tokens": _INT,
            "degraded": (bool,), "result": [["tokens", [_INT]]],
        },
        "coordinator": {
            "margin_ops": _INT, "waits": _INT, "agreed": [[_INT, _INT]],
        },
    }

    @classmethod
    def validate(cls, document):
        """The payload of a parsed state document, its schema, contents
        and digest stamp checked and the stamp stripped: the one reader
        behind :meth:`SessionState.loads` and a raw-payload
        :func:`hydrate_processor`. ``document`` is left as it was."""
        canon.check(document, "state", cls._SCHEMA, PersistFormatError)
        if document["coordinator"] is not None:
            canon.check(document["coordinator"], "coordinator", cls._SCHEMA,
                        PersistFormatError)
        if document["format"] != FORMAT_NAME:
            raise PersistFormatError(
                f"not a {FORMAT_NAME} document: "
                f"format={document['format']!r}"
            )
        if document["version"] != cls.version:
            raise PersistFormatError(
                f"schema v{cls.version} reader cannot load "
                f"version {document['version']!r}"
            )
        cls._check_contents(document)
        recorded, actual = document["digest"], canon.digest(document)
        if recorded != actual:
            raise PersistFormatError(
                f"state digest mismatch: payload says {recorded}, "
                f"contents hash to {actual}"
            )
        return {k: v for k, v in document.items() if k != "digest"}

    @classmethod
    def _check_contents(cls, payload):
        """What hydrate relies on beyond the schema, checked before it
        touches the processor (so a refused document leaves it as it
        was): unique trace ids and token runs (the trie holds one
        candidate per run), every reference to one resolving, each
        candidate in at most one rotation group, whose ``length`` is its
        rotation's and every member's (hydrate keys a candidate to one
        group, and later admissions of that cycle look the group up by
        that key), non-empty candidate and rotation token runs, agreed
        ingest points only for pending jobs (the coordinator retires an
        entry when its job is ingested, so any other would stay for
        good), and id clocks that run ahead of every id the document
        holds (a clock behind them would hand out a live candidate's id
        or a pending job's id again)."""
        candidates, rotations = payload["candidates"], payload["rotations"]
        jobs = payload["jobs"]
        lengths = {r["trace_id"]: len(r["tokens"]) for r in candidates}
        ids = lengths.keys()
        tokens = {tuple(record["tokens"]) for record in candidates}
        members = [m for entry in rotations for m in entry["members"]]
        refs = list(members)
        if payload["replayer"]["last_fired"] is not None:
            refs.append(payload["replayer"]["last_fired"])
        runs = [record["tokens"] for record in candidates]
        runs += [entry["rotation"] for entry in rotations]
        job_ids = [job["job_id"] for job in jobs["pending"]]
        clocks = job_ids + [jobs["counters"]["jobs_submitted"]]
        agreed = (payload["coordinator"] or {}).get("agreed", ())
        checks = {
            "duplicate candidate trace_id": len(ids) == len(candidates),
            "two candidates with one token run": len(tokens) == len(
                candidates),
            "a rotation member or last_fired names no candidate": all(
                ref in ids for ref in refs),
            "a candidate in more than one rotation group": len(
                set(members)) == len(members),
            "a rotation length is not its rotation's or a member's": all(
                entry["length"] == len(entry["rotation"])
                and all(lengths.get(m) == entry["length"]
                        for m in entry["members"])
                for entry in rotations),
            "a candidate or rotation token run is empty": all(runs),
            "an agreed ingest point names no pending job": all(
                job_id in job_ids for job_id, _point in agreed),
            "next_candidate_id is not past every candidate trace_id": all(
                tid < payload["next_candidate_id"] for tid in ids),
            "pending job ids do not increase up to jobs_submitted": all(
                a < b for a, b in zip(clocks, clocks[1:])),
        }
        for problem, ok in checks.items():
            if not ok:
                raise PersistFormatError(f"session state: {problem}")


class SessionState:
    """One dehydrated session: an immutable payload.

    Build one with :func:`dehydrate`; apply one with
    :func:`hydrate_processor` (or ``open_session(..., state=...)`` on
    the facade). The payload is plain JSON data, so states survive any
    transport that carries text; :meth:`dumps` stamps that text with the
    payload's digest and :meth:`loads` checks it.
    """

    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload

    # -- identity -------------------------------------------------------
    @property
    def session_id(self):
        return self.payload.get("session_id")

    @property
    def backend(self):
        return self.payload.get("backend")

    @property
    def num_candidates(self):
        return len(self.payload["candidates"])

    @property
    def token_cost(self):
        """Tokens this state holds (the store's budget currency):
        candidate traces plus the buffered history stream."""
        candidates = sum(
            len(c["tokens"]) for c in self.payload["candidates"]
        )
        return candidates + len(self.payload["finder"]["buffer"])

    # -- serialization --------------------------------------------------
    def dumps(self):
        """The canonical JSON text of this state, stamped with its
        digest (byte-stable)."""
        payload = self.payload
        return canon.dumps(dict(payload, digest=canon.digest(payload)))

    @classmethod
    def loads(cls, text):
        """Parse a state document and check its schema, contents and
        digest stamp (:meth:`PersistFormatV1.validate`)."""
        document = canon.loads(text, "session state", PersistFormatError)
        return cls(PersistFormatV1.validate(document))

    def dump(self, path):
        """Write the state to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
        return path

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())

    def __repr__(self):
        return (
            f"SessionState({self.session_id!r}, "
            f"candidates={self.num_candidates}, "
            f"tokens={self.token_cost})"
        )


# ----------------------------------------------------------------------
# Dehydration
# ----------------------------------------------------------------------
def dehydrate(handle):
    """Snapshot a live session into a :class:`SessionState`.

    ``handle`` is the :class:`~repro.service.service.SessionHandle` any
    backend returned. The session is **flushed first** (buffered tasks
    forward untraced, the match engine resets) -- a snapshot of
    half-buffered pending state would not be a fence-consistent point to
    resume from. Replicated handles snapshot the reference replica;
    replicas are byte-identical by the agreement invariant, so one
    snapshot rehydrates all of them.
    """
    for processor in handle.live_processors:
        processor.flush()
    return _snapshot_processor(
        handle.processor, handle.session_id, handle.backend_kind
    )


def dehydrate_processor(processor, session_id=None):
    """:func:`dehydrate` for a hand-driven processor no backend serves
    (the twin of :func:`hydrate_processor`); flushes it first."""
    processor.flush()
    return _snapshot_processor(processor, session_id, None)


def _snapshot_processor(processor, session_id, backend):
    """The :class:`SessionState` of one (flushed) processor."""
    replayer = processor.replayer
    store = replayer.store
    trie = replayer.trie
    owners = processor_owners(processor)
    config = processor.config

    candidates = [
        {name: getattr(c, name) for name in _CANDIDATE}
        | {"tokens": list(c.tokens)}
        for c in sorted(
            trie.candidates.values(), key=lambda c: c.trace_id
        )
    ]
    rotations = [
        {
            "length": key[0],
            "rotation": list(key[1]),
            "members": [member.trace_id for member in entry[0]],
            "total": entry[1],
        }
        for key, entry in sorted(
            store.by_rotation.items(),
            key=lambda item: (item[0][0], item[0][1]),
        )
    ]

    finder = processor.finder
    pending = []
    for job in finder.pending_jobs:
        # Lane-scheduled jobs may still be queued unmined; accessing
        # ``result`` forces the work now, so the snapshot carries real
        # mined repeats (results are pure functions of the window --
        # forcing is decision-neutral).
        result = job.result
        pending.append({
            "job_id": job.job_id,
            "submitted_at_op": job.submitted_at_op,
            "num_tokens": job.num_tokens,
            "degraded": job.degraded,
            "result": [
                [list(r.tokens), list(r.positions)] for r in result
            ],
        })

    coordinator = processor.coordinator
    coordinator_state = None
    if coordinator is not None:
        agreed = []
        for job in finder.pending_jobs:
            point = coordinator._agreed.get(job.job_id)
            if point is not None:
                agreed.append([job.job_id, point])
        coordinator_state = {
            "margin_ops": coordinator.margin_ops,
            "waits": coordinator.waits,
            "agreed": agreed,
        }

    last_fired = store.last_fired
    return SessionState({
        "format": FORMAT_NAME,
        "version": PersistFormatV1.version,
        "session_id": session_id,
        "backend": backend,
        # The decision-relevant slice, checked at hydrate: restoring
        # learned state into a session whose schedule or scoring differs
        # would corrupt, not warm-start.
        "config": {
            name: getattr(config, name)
            for name in ApopheniaConfig.decision_fields()
        },
        "candidates": candidates,
        "next_candidate_id": trie._next_id,
        "rotations": rotations,
        "replayer": {
            "flushed_since_fire": store.flushed_since_fire,
            "last_fired": (
                last_fired.trace_id if last_fired is not None else None
            ),
            "candidates_evicted": store.candidates_evicted,
            "counters": _counted(owners, _REPLAYER_COUNTERS),
        },
        "gauges": _counted(owners, _SERVING_GAUGES),
        "finder": {
            "buffer": list(finder.buffer),
            "ops_observed": finder.ops_observed,
        },
        "jobs": {
            "counters": _counted(owners, _EXECUTOR_COUNTERS),
            "pending": pending,
        },
        "coordinator": coordinator_state,
        "trace_log": [
            [list(trace_id), length]
            for trace_id, length in processor.trace_log
        ],
    })


# ----------------------------------------------------------------------
# Hydration
# ----------------------------------------------------------------------
def hydrate_processor(processor, state):
    """Restore a dehydrated session onto a freshly built processor.

    The processor must be *fresh* (no tasks served) and built from a
    config whose decision-relevant slice matches the state's -- both are
    checked, and a raw payload (a parsed document) first goes through
    the reader :meth:`SessionState.loads` uses -- schema, contents,
    digest stamp --, so a refused state leaves the processor untouched.
    Replicated backends call this once per node replica with the same
    state: per-node job completion times are recomputed from the node's
    own id
    (:func:`~repro.core.jobs.completion_op`), and the replica set's
    coordinator restore is idempotent.
    """
    if isinstance(state, SessionState):
        payload = state.payload
    else:
        payload = PersistFormatV1.validate(state)
    if processor.replayer.tasks_seen or processor.finder.ops_observed:
        raise PersistFormatError(
            "hydrate target must be a fresh processor (it has already "
            "served tasks)"
        )
    check_recorded(payload["config"], PersistFormatError)
    for name in ApopheniaConfig.decision_fields():
        value = getattr(processor.config, name)
        recorded = payload["config"].get(name, value)
        if recorded != value:
            raise PersistFormatError(
                f"state was captured under {name}={recorded!r} but the "
                f"session runs {name}={value!r}; learned state is only "
                "valid under the schedule that produced it"
            )

    replayer = processor.replayer
    store = replayer.store
    engine = replayer.engine
    trie = replayer.trie

    # Candidates, with their exact historical trace ids: ids feed trace
    # identities and scoring tie-breaks, so each insert pins the id
    # counter first.
    for record in payload["candidates"]:
        trie._next_id = record["trace_id"]
        candidate = engine.insert(tuple(record["tokens"]))
        for name in _COPIED:
            setattr(candidate, name, record[name])
    trie._next_id = payload["next_candidate_id"]

    store.by_rotation = {
        (entry["length"], tuple(entry["rotation"])): [
            [trie.candidates[member] for member in entry["members"]],
            entry["total"],
        ]
        for entry in payload["rotations"]
    }
    for key, (members, _total) in store.by_rotation.items():
        for member in members:
            member.rotation_key = key
    rep = payload["replayer"]
    last_fired = rep["last_fired"]
    store.last_fired = (
        trie.candidates[last_fired] if last_fired is not None else None
    )
    store.flushed_since_fire = rep["flushed_since_fire"]
    store.candidates_evicted = rep["candidates_evicted"]
    owners = processor_owners(processor)
    _restore(owners, _REPLAYER_COUNTERS, rep["counters"])
    _restore(owners, _SERVING_GAUGES, payload["gauges"])

    finder = processor.finder
    fin = payload["finder"]
    finder.buffer = deque(fin["buffer"], maxlen=finder.batchsize)
    finder.ops_observed = fin["ops_observed"]

    executor = processor.executor
    jobs = payload["jobs"]
    _restore(owners, _EXECUTOR_COUNTERS, jobs["counters"])
    finder.pending_jobs = deque(
        AnalysisJob(
            job["job_id"],
            job["submitted_at_op"],
            # Recomputed, not recorded: completion times carry per-node
            # jitter, so each replica derives its own from its node id
            # and its executor's completion model -- exactly the value
            # its uninterrupted run would hold.
            completion_op(
                job["submitted_at_op"],
                job["num_tokens"],
                executor.base_latency_ops,
                executor.per_token_latency_ops,
                processor.node_id,
                job["job_id"],
            ),
            job["num_tokens"],
            result=[
                Repeat(tuple(tokens), tuple(positions))
                for tokens, positions in job["result"]
            ],
            degraded=job["degraded"],
        )
        for job in jobs["pending"]
    )

    coordinator = processor.coordinator
    restored = payload["coordinator"]
    if coordinator is not None and restored is not None:
        # Idempotent across the replica set: plain assignments and
        # keyed dict writes land on the same values for every node.
        coordinator.margin_ops = max(
            coordinator.margin_ops, restored["margin_ops"]
        )
        coordinator.waits = max(coordinator.waits, restored["waits"])
        for job_id, point in restored["agreed"]:
            if job_id not in coordinator._agreed:
                coordinator._agreed[job_id] = point
                coordinator.agreements_issued += 1

    # In place: the replayer's on_trace callback holds this very list.
    processor.trace_log[:] = [
        (tuple(trace_id), length)
        for trace_id, length in payload["trace_log"]
    ]
    return processor


__all__ = [
    "FORMAT_NAME",
    "PersistFormatError",
    "PersistFormatV1",
    "SessionState",
    "dehydrate",
    "dehydrate_processor",
    "hydrate_processor",
]
