"""Asynchronous buffer-analysis jobs.

Apophenia mines the task history buffer *asynchronously* so the application
is never stalled waiting for a suffix-array analysis (Section 4.2). In the
real implementation the jobs run on Legion's background worker threads; in
this reproduction the asynchrony lives in the *op clock*, never in when
the Python work runs: a job submitted at operation ``t`` over ``n`` tokens
completes at operation ``t + base + ceil(n * per_token)``, with
deterministic per-node jitter so the distributed agreement protocol
(Section 5.1) has real skew to resolve, and its result -- a pure function
of the job's input tokens, so deterministic across nodes -- is whatever
the mining returns whenever it runs before the first ``job.result`` read.

* :func:`completion_op` -- the completion-time model, as a pure function;
* :class:`MiningMemo` -- the identical-window result cache, a front
  over :class:`~repro.lru.LRU`; only shared executors have one (a
  replica set's one-entry memo, a service's cross-tenant memo): its key
  excludes node and session identity, and a lone stream's schedule does
  not re-mine a window;
* :class:`AnalysisJob` -- one job; its mining work is a ``materialize``
  thunk that runs at most once;
* :class:`JobExecutor` -- the one mining executor: ``submit`` fixes job
  id, fault, completion op and counters, the thunk runs the one
  fault-contained mining path, and a single scheduling hook decides when.
  A private executor mines inside ``submit``; a service lane
  (:class:`repro.service.executor.SessionLane`, a subclass) queues the
  job on its shared executor's FIFO instead.
"""

from repro.core.repeats import find_repeats
from repro.faults import (
    CircuitBreaker,
    InjectedMiningFault,
    MiningFault,
    resolve_fault_plan,
)
from repro.lru import LRU

#: Sentinel for a job whose mining work has not run yet.
_UNMINED = object()


def completion_op(now_op, num_tokens, base_latency_ops, per_token_latency_ops,
                  node_id, job_id):
    """Operation count at which a mining job completes.

    A module-level pure function (rather than a method) so the service
    layer's per-session lanes compute completion times byte-identical to a
    standalone :class:`JobExecutor`: the service must change throughput,
    never decisions. The jitter is deterministic per ``(node_id, job_id)``,
    modeling scheduling noise of background worker threads on each node;
    Python hashes integers to themselves, so ``hash`` here is stable
    across processes.
    """
    latency = base_latency_ops + int(num_tokens * per_token_latency_ops)
    jitter = (hash((node_id * 2654435761) ^ job_id) & 0xFFFF) % max(  # replint: allow[RPL003] int-only argument: Python hashes ints to themselves, stable across processes
        1, base_latency_ops // 2
    )
    return now_op + latency + jitter


class AnalysisJob:
    """One asynchronous mining job over a slice of the history buffer.

    ``degraded`` marks a job whose mining work failed (or was skipped by
    a quarantine): its result is the empty no-repeats value --
    valid input for the replayer, because mining is advisory -- and must
    never be memoized as the true analysis of its window.
    """

    __slots__ = (
        "job_id",
        "submitted_at_op",
        "completes_at_op",
        "num_tokens",
        "degraded",
        "_result",
        "_materialize",
    )

    def __init__(self, job_id, submitted_at_op, completes_at_op, num_tokens,
                 result=_UNMINED, materialize=None, degraded=False):
        self.job_id = job_id
        self.submitted_at_op = submitted_at_op
        self.completes_at_op = completes_at_op
        self.num_tokens = num_tokens
        self.degraded = degraded
        self._result = result
        self._materialize = materialize

    @property
    def result(self):
        """The mined repeats; runs the mining work now if it has not."""
        if self._result is _UNMINED:
            self._materialize(self)
        return self._result

    @property
    def materialized(self):
        """True once the mining work for this job has actually run."""
        return self._result is not _UNMINED

    def _fulfill(self, result, degraded=False):
        self._result = result
        self.degraded = degraded
        self._materialize = None

    def complete_by(self, op_count):
        return op_count >= self.completes_at_op

    def __repr__(self):
        return (
            f"AnalysisJob(id={self.job_id}, n={self.num_tokens}, "
            f"submitted={self.submitted_at_op}, completes={self.completes_at_op})"
        )


class MiningMemo(LRU):
    """LRU cache of ``(window, min_length) -> [Repeat, ...]`` results.

    Results are pure functions of the key, and the key deliberately
    excludes node and session identity, so one memo may be shared across
    the replicas of a session and across the tenants of an
    :class:`~repro.service.ApopheniaService` without changing any
    decision. Nothing else has one: a standalone executor mines every
    job, because a single stream's multi-scale schedule does not re-mine
    a window it mined before (an 8-entry private memo got no hit in 240
    jobs on each of three benchmark workloads), while a replica set's
    jobs arrive in lockstep -- node 0 mines, nodes 1..N-1 hit before
    the next window exists -- so one entry serves every hit it can get.

    The memo is defensive about aliasing: it stores each result as a
    tuple and hands out a fresh list on every hit, so a caller mutating
    a returned result can never corrupt what later hits (or other
    tenants) observe. Every entry costs its window length in tokens
    (the :class:`~repro.lru.LRU` ``token_budget`` currency), so a
    service's budget keeps one tenant's giant window from flushing
    everyone else's small ones.
    """

    def __init__(self, capacity=None, token_budget=None):
        super().__init__(token_budget, capacity)

    def mine(self, tokens, min_length, algorithm):
        """Look up ``(tokens, min_length)`` or compute it via ``algorithm``.

        Returns ``(result, hit)``; the caller counts the hit (the memo
        keeps no counters of its own).
        """
        key = (tuple(tokens), min_length)
        cached = self.get(key)
        if cached is not None:
            return list(cached), True
        result = algorithm(tokens, min_length)
        self.put(key, tuple(result), len(key[0]))
        return result, False


class JobExecutor:
    """The one mining executor: runs repeat-finding jobs with simulated
    asynchronous completion and per-job fault containment.

    Parameters
    ----------
    repeats_algorithm:
        Callable ``(tokens, min_length) -> list[Repeat]``; defaults to the
        paper's Algorithm 2 (:func:`repro.core.repeats.find_repeats`).
    base_latency_ops / per_token_latency_ops:
        Completion-time model, in units of processed operations.
    node_id:
        Used to derive deterministic per-node jitter.
    memo:
        An externally owned :class:`MiningMemo` consulted before mining
        -- how the replicas of one session share their analyses. ``None``
        (the default) mines every job.
    fault_plan:
        A :class:`repro.faults.FaultPlan` (or spec string / ``None``)
        injecting deterministic mining faults; the default null plan
        costs one attribute check per submit.
    stream_key:
        Stream identity the fault plan keys its decisions on. Every
        backend passes the session id, so one (plan, session id, stream)
        fails identically on every deployment, and the replicas of one
        session fail identically (injected faults stay decision-neutral
        across the replica set).
    quarantine_threshold:
        Consecutive-failure threshold of the executor's
        :class:`~repro.faults.CircuitBreaker`; ``None``/0 disables
        quarantine (failures are still contained and counted).
    """

    def __init__(
        self,
        repeats_algorithm=find_repeats,
        base_latency_ops=50,
        per_token_latency_ops=0.05,
        node_id=0,
        memo=None,
        fault_plan=None,
        stream_key=None,
        quarantine_threshold=None,
    ):
        self.repeats_algorithm = repeats_algorithm
        self.memo = memo
        self.fault_plan = resolve_fault_plan(fault_plan)
        self._init_stream(stream_key, node_id, base_latency_ops,
                          per_token_latency_ops, quarantine_threshold)

    def _init_stream(self, stream_key, node_id, base_latency_ops,
                     per_token_latency_ops, quarantine_threshold):
        """The per-stream half of an executor: identity, completion
        model, breaker and counters; ``jobs_submitted`` is also the
        job-id clock (a job's id is the count submitted before it). (The
        other half -- algorithm, memo, fault plan -- is the
        mining backend, which a service lane borrows from its shared
        executor.)"""
        self.stream_key = stream_key
        self.node_id = node_id
        self.base_latency_ops = base_latency_ops
        self.per_token_latency_ops = per_token_latency_ops
        self.breaker = CircuitBreaker(quarantine_threshold)
        self.jobs_submitted = 0
        self.tokens_analyzed = 0
        self.memo_hits = 0
        self.mining_failures = 0
        self.degraded_jobs = 0

    @property
    def quarantined(self):
        return self.breaker.quarantined

    @property
    def memo_tokens_held(self):
        memo = self.memo
        return memo.tokens_held if memo is not None else 0

    def _mine(self, tokens, min_length):
        """Run the repeat finder, reusing a memoized identical window."""
        memo = self.memo
        if memo is None:
            return self.repeats_algorithm(tokens, min_length)
        result, hit = memo.mine(tokens, min_length, self.repeats_algorithm)
        if hit:
            self.memo_hits += 1
        return result

    def _mine_contained(self, tokens, min_length, fault):
        """Run mining with fault containment; returns ``(result, degraded)``.

        Mining is advisory, so every failure path resolves to the empty
        no-repeats result instead of propagating. The memo is only
        touched by the successful :meth:`_mine` call, so a degraded
        result can never poison it (failed analyses must not answer
        other callers' identical windows).
        """
        breaker = self.breaker
        if not breaker.allow():
            self.degraded_jobs += 1
            return [], True
        try:
            if fault is not None:
                # A raise (submit consumed a delay into the completion
                # op). Raised inside the containment, so it takes
                # exactly the path a real mining exception does.
                raise InjectedMiningFault(
                    f"injected mining {fault.kind} (stream="
                    f"{self.stream_key!r}, node={self.node_id})"
                )
            result = self._mine(tokens, min_length)
        except Exception:
            self.mining_failures += 1
            self.degraded_jobs += 1
            breaker.record_failure()
            return [], True
        breaker.record_success()
        return result, False

    def submit(self, tokens, min_length, now_op):
        """Submit a mining job; returns the :class:`AnalysisJob`.

        Everything the decision stream can see is fixed here: the job id,
        the injected fault (a pure function of ``(stream, job id)``,
        whenever the work runs) and the completion op. The mining itself
        is the job's ``materialize`` thunk; :meth:`_schedule` says when
        it runs.
        """
        job_id = self.jobs_submitted
        plan = self.fault_plan
        fault = (
            plan.mining_fault(self.stream_key, job_id) if plan.active
            else None
        )
        completes = completion_op(
            now_op,
            len(tokens),
            self.base_latency_ops,
            self.per_token_latency_ops,
            self.node_id,
            job_id,
        )
        if fault is not None and fault.kind == MiningFault.DELAY:
            completes += fault.delay_ops
            fault = None  # the mining itself stays healthy, just late
        self.jobs_submitted += 1
        self.tokens_analyzed += len(tokens)

        # The finder hands over a freshly copied slice; the thunk owns it
        # until the job is fulfilled (which drops the thunk).
        def materialize(job):
            job._fulfill(*self._mine_contained(tokens, min_length, fault))

        job = AnalysisJob(job_id, now_op, completes, len(tokens),
                          materialize=materialize)
        self._schedule(job)
        return job

    def _schedule(self, job):
        """The one scheduling hook: a private executor mines at once."""
        job._materialize(job)


def stream_keywords(config):
    """The per-stream half of a ``JobExecutor``'s keywords, read off an
    ``ApopheniaConfig`` -- all a service lane takes (the mining backend
    is the shared executor's)."""
    return dict(
        base_latency_ops=config.job_base_latency_ops,
        quarantine_threshold=config.fault_quarantine_threshold,
    )


def executor_from_config(config, node_id=0, stream_key=None, memo=None):
    """The mining executor an ``ApopheniaConfig`` describes -- the one
    place its knobs become executor keywords. ``memo`` is an externally
    owned :class:`MiningMemo` (how the replicas of one session share a
    cache)."""
    return JobExecutor(
        memo=memo,
        fault_plan=config.fault_plan,
        stream_key=stream_key,
        node_id=node_id,
        **stream_keywords(config),
    )
