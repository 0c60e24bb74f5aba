"""The Apophenia front-end (``ExecuteTask`` of Algorithm 1).

:class:`ApopheniaProcessor` sits between the application and the runtime,
exactly as the paper's implementation sits between the application and
Legion. Every task the application launches flows through
:meth:`ApopheniaProcessor.execute_task`, which

1. hashes the task into the token stream (Section 4.1),
2. feeds the token to the trace finder, possibly submitting an
   asynchronous mining job (Section 4.2),
3. ingests any mining results whose agreed ingestion point has been
   reached (Section 5.1), and
4. hands the task to the trace replayer, which forwards it to the runtime
   untraced, buffers it as part of a potential match, or issues a
   completed match wrapped in ``tbegin``/``tend`` (Section 4.3).

Configuration mirrors the runtime flags listed in the paper's artifact
appendix (``-lg:auto_trace:*``).
"""

import sys
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial
from typing import Optional, get_args

from repro import canon
from repro.core.finder import TraceFinder
from repro.core.hashing import TaskHasher
from repro.core.jobs import executor_from_config
from repro.core.matching import AutomatonMatchEngine
from repro.core.replayer import TraceReplayer
from repro.core.scoring import ScoringPolicy


def _decision(default):
    """A config field whose value shapes the decision stream.

    The one place a knob is declared decision-relevant: learned state
    (candidates, scores, op clocks, agreed ingest points) is only valid
    under the marked values that produced it, so ``repro.persist``
    records this slice and refuses to hydrate across a mismatch. The
    deployment knobs (service, replication, fault and spill tier) are
    left unmarked on purpose: a state may hydrate across any of them.
    """
    return field(default=default, metadata={"decision": True})


#: A retired knob that no decision ever read: any recorded value loads.
NEUTRAL = object()

#: The knobs older documents record that name no field any more, and
#: the one value this tree honours for each (what it runs is that
#: value's schedule), or :data:`NEUTRAL`. A retired decision knob is
#: agreed state: a trace header or session state recorded under another
#: value was produced by a schedule this tree cannot run, so both readers
#: refuse it (:func:`check_recorded`) instead of re-driving it under
#: this tree's value.
RETIRED = {
    # The artifact's fixed finder is ``multi_scale_factor = batchsize``.
    "identifier_algorithm": "multi-scale",
    # The paper's finder and constants, component defaults since.
    "repeats_algorithm": "quick_matching_of_substrings",
    "count_cap": 16,
    "decay_rate": 1e-4,
    "replay_bonus": 1.1,
    "job_per_token_latency_ops": 0.05,
    # Bounds only tests ever set.
    "candidate_staleness_horizon": None,
    "mining_deadline_tokens": None,
    # Selection, memo and scheduler knobs: no decision read them.
    **dict.fromkeys(("sa_backend", "match_engine", "mining_memo_capacity",
                     "max_outstanding_jobs", "lane_outstanding_quota"),
                    NEUTRAL),
}


def check_recorded(recorded, error):
    """Refuse, with ``error``, a document's recorded config (name ->
    value) that names a retired knob at a value other than the one
    :data:`RETIRED` honours, or a key that names no knob at all."""
    names = ApopheniaConfig.field_names()
    for name, value in recorded.items():
        if name in names:
            continue
        if name not in RETIRED:
            raise error(f"config key {name!r} names no knob")
        honoured = RETIRED[name]
        if honoured is not NEUTRAL and value != honoured:
            raise error(
                f"recorded under the retired knob {name}={value!r}; this "
                f"tree runs only {name}={honoured!r}"
            )


@dataclass(frozen=True)
class ApopheniaConfig:
    """Tuning knobs, named after the artifact's command-line flags.

    A field is a knob some deployment sets. What the paper fixes is not
    here: Algorithm 2 as the repeat finder and the per-token job
    latency are :class:`~repro.core.jobs.JobExecutor` defaults, the
    scoring constants (count cap 16, decay 1e-4, replay bonus 1.1)
    :class:`~repro.core.scoring.ScoringPolicy` defaults --
    constructor arguments a test may pass, not configuration.

    Attributes
    ----------
    min_trace_length:
        ``-lg:auto_trace:min_trace_length``; shorter repeats are never
        considered (Section 3's minimum-length constraint).
    max_trace_length:
        ``-lg:auto_trace:max_trace_length``; matches longer than this are
        split into chunks before being issued (the FlexFlow auto-200
        configuration in Section 6.2). ``None`` means unbounded.
    batchsize:
        ``-lg:auto_trace:batchsize``; capacity of the task history buffer.
    multi_scale_factor:
        ``-lg:auto_trace:multi_scale_factor``; granularity of the
        ruler-function sampling schedule. The artifact's
        ``-lg:auto_trace:identifier_algorithm=fixed`` (mine the whole
        buffer each time it fills) is ``multi_scale_factor = batchsize``:
        the same schedule, not a separate knob.
    hysteresis:
        Strength of the realized-replay-share weighting in trace
        scoring (see :class:`~repro.core.scoring.ScoringPolicy`); 0
        (the default) reproduces the paper's scoring exactly, positive
        values stop misaligned full-buffer candidates from churning a
        profitably replaying steady state.
    job_base_latency_ops:
        Fixed part of an asynchronous mining job's completion time, in
        operations.
    initial_ingest_margin_ops:
        Starting margin of the distributed ingestion agreement.
    num_nodes:
        Node count of the replicated deployment, read by
        :class:`~repro.service.replicated.ReplicatedBackend` (every other
        backend serves single-node sessions and ignores it).
    max_sessions / shared_memo_capacity:
        Service-layer knobs, read by :class:`~repro.service.ApopheniaService`
        (a single processor ignores them): the session budget before LRU
        eviction, and the capacity of the cross-session
        :class:`~repro.core.jobs.MiningMemo`.
    shared_memo_token_budget:
        Optional size-aware admission budget for the shared memo, in
        tokens: entries cost their window length, LRU eviction runs until
        held tokens fit, and windows larger than the whole budget are not
        admitted. ``None`` keeps pure entry-count LRU.
    fault_plan:
        Fault injection schedule: ``None`` (no faults, the production
        default), a :class:`repro.faults.FaultPlan`-shaped object, or a
        spec string (see :func:`repro.faults.parse_fault_spec`) -- the
        string form is what the ``REPRO_FAULT_PLAN`` environment
        variable carries through :func:`repro.api.build_config`.
    fault_quarantine_threshold:
        Consecutive mining failures before a session's lane/executor is
        quarantined (pass-through tracing, no mining, exponential
        backoff re-probes). ``None`` disables quarantine; failures are
        still contained per job and counted.
    max_candidates:
        Capacity bound on the candidate trie: after every ingestion the
        :class:`~repro.core.candidates.CandidateStore` evicts the
        poorest-realized-share candidates until the count fits. ``None``
        (the default) keeps the historical unbounded behaviour,
        byte-identical to before the lifecycle layer existed.
    session_state_budget:
        Token budget of the service's
        :class:`~repro.persist.SessionStateStore`: LRU-evicted sessions
        are dehydrated into it (instead of being forgotten) and
        re-admission warm-starts from the stored state. Entries cost
        roughly the tokens they hold (candidates + buffered stream);
        ``None`` disables the spill path, reproducing forget-on-evict.
    """

    min_trace_length: int = _decision(5)
    max_trace_length: Optional[int] = _decision(None)
    batchsize: int = _decision(5000)
    multi_scale_factor: int = _decision(250)
    hysteresis: float = _decision(0.0)
    job_base_latency_ops: int = _decision(50)
    initial_ingest_margin_ops: int = _decision(128)
    num_nodes: int = 2
    max_sessions: int = 64
    shared_memo_capacity: int = 256
    shared_memo_token_budget: Optional[int] = None
    fault_plan: object = None
    fault_quarantine_threshold: Optional[int] = 8
    max_candidates: Optional[int] = _decision(None)
    session_state_budget: Optional[int] = None

    @classmethod
    @cache
    def field_names(cls):
        """Every knob, in declaration order (what a trace header records)."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    @cache
    def decision_fields(cls):
        """The :func:`_decision`-marked subset, in declaration order."""
        return tuple(
            f.name for f in fields(cls) if f.metadata.get("decision")
        )

    def with_overrides(self, **kwargs):
        return replace(self, **kwargs)

    def validate(self):
        """Check each field's type and the cross-field invariants;
        returns ``self`` for chaining.

        Raises ``ValueError`` naming the offending field. Construction
        stays unvalidated (experiments deliberately build degenerate
        configs); the :mod:`repro.api` entry points validate before any
        backend is built, so misconfiguration fails fast at the client
        surface instead of deep in a mining job.
        """
        spec = {}
        for f in fields(self):
            # ``Optional[int]`` is (int, NoneType), a float field takes an
            # int, and ``fault_plan`` (an ``object``) is resolved below.
            types = get_args(f.type) or (f.type,)
            if object not in types:
                spec[f.name] = types + (int,) if float in types else types
        canon.check(vars(self), "config", {"config": spec}, ValueError)
        if self.min_trace_length < 2:
            raise ValueError(
                f"min_trace_length must be >= 2, got {self.min_trace_length}"
            )
        if (self.max_trace_length is not None
                and self.max_trace_length < self.min_trace_length):
            raise ValueError(
                f"max_trace_length {self.max_trace_length} < "
                f"min_trace_length {self.min_trace_length}"
            )
        # At most ``sys.maxsize``: the finder's history is a bounded deque.
        if not 2 * self.min_trace_length <= self.batchsize <= sys.maxsize:
            raise ValueError(
                f"batchsize {self.batchsize} is not in [2 * min_trace_length"
                f", sys.maxsize] = [{2 * self.min_trace_length}, {sys.maxsize}]"
            )
        if self.multi_scale_factor < 1:
            raise ValueError(
                f"multi_scale_factor must be >= 1, got "
                f"{self.multi_scale_factor}"
            )
        # Fails closed on NaN too, which no comparison orders.
        if not 0 <= self.hysteresis < float("inf"):
            raise ValueError(
                f"hysteresis must be finite and >= 0, got {self.hysteresis}"
            )
        for name in ("shared_memo_capacity",
                     "job_base_latency_ops", "initial_ingest_margin_ops"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        for name in ("shared_memo_token_budget", "fault_quarantine_threshold",
                     "max_candidates", "session_state_budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be None or >= 1, got {value}")
        if self.fault_plan is not None:
            from repro.faults import resolve_fault_plan

            # Raises ValueError naming the bad spec/object; the resolved
            # plan is discarded -- executors resolve at construction.
            resolve_fault_plan(self.fault_plan)
        return self

    def scoring_policy(self):
        # The hysteresis gate tracks the buffer: the churn pathology is
        # full-buffer candidates (the multi-scale schedule surfaces
        # repeats up to batchsize/2 tokens), so only candidates within
        # reach of that scale ever pay the realized-share discount.
        return ScoringPolicy(
            hysteresis=self.hysteresis,
            hysteresis_min_length=self.batchsize // 8,
        )


def _forward_untraced(runtime, tasks):
    """The replayer's ``on_flush``: forward ``tasks`` untraced."""
    for task in tasks:
        runtime.execute_task(task, charge_launch=False)


def _forward_trace(runtime, trace_log, candidate, chunk_index, tasks):
    """The replayer's ``on_trace``: issue ``tasks`` as one trace and log
    its ``(trace_id, length)``."""
    trace_id = ("apophenia", candidate.trace_id, chunk_index, len(tasks))
    runtime.begin_trace(trace_id)
    _forward_untraced(runtime, tasks)
    runtime.end_trace(trace_id)
    trace_log.append((trace_id, len(tasks)))


class ApopheniaProcessor:
    """Automatic tracing front-end for one (replicated) runtime node.

    Parameters
    ----------
    runtime:
        A :class:`repro.runtime.runtime.Runtime`; the processor forwards
        (possibly rearranged into traces) task launches to it.
    config:
        :class:`ApopheniaConfig`.
    node_id:
        This node's id under control replication.
    coordinator:
        Shared :class:`repro.core.coordination.IngestCoordinator` when
        running replicated; ``None`` gates ingestion on local completion
        only. The processor registers its ``node_id`` with the
        coordinator so agreement pruning knows how many nodes consume
        each entry.
    stream_key:
        The stream identity the default executor's fault plan keys on
        (the session id, on every backend); unused with an injected
        ``executor``, which carries its own.
    executor:
        An injected :class:`~repro.core.jobs.JobExecutor`. The
        multi-tenant service passes a per-session lane of its shared
        executor here; ``None`` builds a private one from ``config``.
    match_engine:
        The replayer's match-engine class, injected like ``executor``.
        Only the parity suites pass anything but the default (the
        ``ScanMatchEngine`` reference of ``tests/references.py``).

    The processor holds no statistics object: each counter lives on the
    layer that bumps it (``replayer``, ``executor``, the replayer's
    ``engine`` / ``policy`` / ``store``), and
    :func:`~repro.service.service.collect_session_stats` reads a
    processor as a :class:`~repro.metrics.SessionStats`.
    """

    def __init__(self, runtime, config=None, node_id=0, coordinator=None,
                 executor=None, stream_key=None,
                 match_engine=AutomatonMatchEngine):
        self.runtime = runtime
        self.config = config or ApopheniaConfig()
        self.node_id = node_id
        self.coordinator = coordinator
        if coordinator is not None:
            coordinator.register_node(node_id)
        runtime.auto_tracing = True  # launches now cost 12us, Section 6.3

        self.hasher = TaskHasher(self.config.batchsize)
        self.executor = (
            executor if executor is not None
            else executor_from_config(self.config, node_id, stream_key)
        )
        self.finder = TraceFinder(
            self.executor,
            batchsize=self.config.batchsize,
            multi_scale_factor=self.config.multi_scale_factor,
            min_trace_length=self.config.min_trace_length,
        )
        self.trace_log = []  # (trace_id, length) of every issued trace
        # The callbacks reach the runtime and the log, not the processor:
        # a bound method here would make every session a reference cycle
        # that only a full collection frees.
        self.replayer = TraceReplayer(
            on_flush=partial(_forward_untraced, runtime),
            on_trace=partial(_forward_trace, runtime, self.trace_log),
            scoring=self.config.scoring_policy(),
            min_trace_length=self.config.min_trace_length,
            max_trace_length=self.config.max_trace_length,
            match_engine=match_engine,
            max_candidates=self.config.max_candidates,
        )
        self.warm_starts = 0  # sessions hydrated from a SessionState

    # ------------------------------------------------------------------
    # Application-facing interface
    # ------------------------------------------------------------------
    def execute_task(self, task):
        """Issue one task through Apophenia (Algorithm 1's ExecuteTask)."""
        if task.provenance is None:
            task.provenance = self.runtime.current_iteration
        self.runtime.charge_launch()
        token = self.hasher.hash_task(task)
        self.finder.observe(token)  # the job lands on its pending queue
        for done in self.finder.drain_completed(
            self.finder.ops_observed, self.coordinator, self.node_id
        ):
            self.replayer.ingest(done.result)
        self.replayer.process(task, token)

    def flush(self):
        """Drain all buffered tasks (call at program end or at a fence)."""
        self.replayer.flush_all()

    def fence(self):
        """Forward an execution fence, draining buffers first."""
        self.flush()
        self.runtime.fence()

    def set_iteration(self, iteration):
        self.runtime.set_iteration(iteration)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def decision_trace(self):
        """A deterministic summary of all tracing decisions, used by the
        control-replication tests to assert that every node agreed."""
        return tuple(self.trace_log)
