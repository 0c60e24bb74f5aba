"""The one metrics schema: every per-session metric, declared once.

:class:`SessionStats` is both the snapshot ``Session.stats()`` returns
and the table everything else that lists metrics is derived from --
:func:`~repro.service.service.collect_session_stats`, the
``backend_stats`` fold and warm-start subtraction, what
:mod:`repro.persist` restores, and the lifecycle contract's gauge /
lifetime lists. It is the only class that holds metric values: every
counter is a plain attribute of the object that bumps it until a
:class:`SessionStats` reads it. Each field is marked once with
:func:`_metric`; consumers read the marks through :data:`MARKS` instead
of keeping a list of names.

Section 5.1 rests on one line -- what every replica must compute
identically versus what may stay local. The ``decision`` mark draws it
per metric: a ``decision=True`` value is a pure function of the token
stream, the config and the fault plan, so replicas (and backends)
serving the same stream agree on it; everything else describes *how* the
stream was served (engine, memo, timing, deployment) and may differ.
This module imports nothing from the package.
"""

from dataclasses import dataclass, field, fields
from operator import add
from types import MappingProxyType


def _metric(owner, attr=None, *, fold=add, gauge=False, decision=False,
            restored=False, default=0):
    """A marked :class:`SessionStats` field.

    ``owner`` / ``attr`` say where the value lives (``attr`` defaults to
    the field's name): ``handle``, ``pool``, ``spill`` (the pool's state
    store), ``coordinator``, and the :func:`processor_owners` --
    ``processor``, ``executor``, ``replayer`` and the replayer's own
    ``engine`` / ``policy`` / ``store``. An absent owner (no coordinator,
    no spill tier) reads as ``default``.

    ``fold`` combines sessions into ``backend_stats`` (``add`` or
    ``max``; ``None``: identity, never folded -- ``pool`` / ``spill``
    values are already pool-wide and are read once, not folded). A
    ``gauge`` describes open sessions only; every other metric is a
    lifetime value that survives ``close_session``. ``decision`` is the
    agreed-vs-local line of the module docstring. ``restored`` marks
    what ``hydrate_processor`` brings back from a ``SessionState`` (and
    a warm start therefore must not count twice).
    """
    return field(default=default, metadata={
        "owner": owner, "attr": attr, "fold": fold, "gauge": gauge,
        "decision": decision, "restored": restored,
    })


@dataclass(frozen=True)
class SessionStats:
    """One deployment-agnostic statistics snapshot of a session.

    Replicated sessions report the reference replica (replicas agree on
    every ``decision`` metric; a dropped node's counters froze at the
    drop). Single-node backends report the no-coordinator defaults.
    """

    session_id: object = _metric("handle", fold=None, default=None)
    backend: str = _metric("handle", "backend_kind", fold=None, default=None)
    # The replayer's own counters: the decision-determined tuple the
    # parity suites compare.
    tasks_seen: int = _metric("replayer", decision=True, restored=True)
    tasks_flushed: int = _metric("replayer", decision=True, restored=True)
    tasks_traced: int = _metric("replayer", decision=True, restored=True)
    traces_fired: int = _metric("replayer", decision=True, restored=True)
    candidates_ingested: int = _metric("replayer", decision=True,
                                       restored=True)
    deferrals: int = _metric("replayer", decision=True, restored=True)
    # How the serving path did the work: pointer pressure (the worst
    # ladder any stream built: a max), walks the deduplicating engine
    # avoided, switches the scoring hysteresis absorbed.
    active_pointer_peak: int = _metric("engine", fold=max, restored=True)
    pointer_collapses: int = _metric("engine", restored=True)
    hysteresis_suppressed: int = _metric("policy", restored=True)
    # The mining executor: the job schedule is a function of the stream;
    # who answered a job (the memo) is not.
    jobs_submitted: int = _metric("executor", decision=True, restored=True)
    tokens_analyzed: int = _metric("executor", decision=True, restored=True)
    memo_hits: int = _metric("executor", restored=True)
    sessions_evicted: int = _metric("pool", fold=None)
    # The Section 5.1 agreement protocol: all timing.
    nodes: int = _metric("handle", "num_nodes", gauge=True, default=1)
    coordinator_waits: int = _metric("coordinator", "waits", restored=True)
    ingest_margin_ops: int = _metric("coordinator", "margin_ops", fold=max,
                                     gauge=True)
    agreement_table_size: int = _metric("coordinator", gauge=True)
    # Fault containment: injected faults key on (plan, session id,
    # stream), so every replica degrades identically.
    mining_failures: int = _metric("executor", decision=True, restored=True)
    degraded_jobs: int = _metric("executor", decision=True, restored=True)
    deadline_overruns: int = _metric("executor", decision=True,
                                     restored=True)
    # bool -> 0/1: the fold counts currently quarantined sessions.
    quarantined: bool = _metric("executor", gauge=True, decision=True,
                                default=False)
    live_nodes: int = _metric("handle", gauge=True, default=1)
    # Candidate lifecycle and persistence.
    candidates_evicted: int = _metric("store", decision=True, restored=True)
    warm_starts: int = _metric("processor")
    states_held: int = _metric("spill", fold=None, gauge=True)
    # Per-session so that ``backend_stats`` folds them like the rest.
    nodes_dropped: int = _metric("handle")
    agreements_pruned: int = _metric("coordinator")
    memo_tokens_held: int = _metric("executor", gauge=True)

    @property
    def memo_hit_rate(self):
        """Fraction of this session's mining jobs answered by a memo."""
        return self.memo_hits / self.jobs_submitted if self.jobs_submitted else 0.0

    @property
    def replay_fraction(self):
        """Fraction of the session's tasks issued inside a trace."""
        return self.tasks_traced / self.tasks_seen if self.tasks_seen else 0.0

    def replayer_counters(self):
        """The replayer's decision-determined counters, in declaration
        order: the one tuple the decision-neutrality property tests, a
        :class:`~repro.api.SessionSnapshot` digest and a corpus footer
        compare."""
        return tuple(getattr(self, name) for name in owned_by("replayer"))


#: ``field name -> marks``, in declaration order: the table, read-only.
MARKS = MappingProxyType({f.name: f.metadata for f in fields(SessionStats)})


def owned_by(*owners, **marks):
    """Names of the fields those owners hold (and that carry every given
    mark), in declaration order."""
    return tuple(
        name for name, mark in MARKS.items()
        if mark["owner"] in owners
        and all(mark[key] == value for key, value in marks.items())
    )


def processor_owners(processor):
    """``{owner name: object}`` for the owners one processor holds: the
    lookup both ``collect_session_stats`` and :mod:`repro.persist` read
    (and restore) through."""
    replayer = processor.replayer
    return {
        "processor": processor,
        "executor": processor.executor,
        "replayer": replayer,
        "engine": replayer.engine,
        "policy": replayer.policy,
        "store": replayer.store,
    }


def read(owners):
    """``{field name: value}`` for every field whose owner ``owners``
    names; an owner mapped to ``None`` reads as the field's default."""
    values = {}
    for f in fields(SessionStats):
        mark = f.metadata
        if mark["owner"] in owners:
            obj = owners[mark["owner"]]
            values[f.name] = (
                f.default if obj is None
                else getattr(obj, mark["attr"] or f.name)
            )
    return values


__all__ = ["MARKS", "SessionStats", "owned_by", "processor_owners", "read"]
