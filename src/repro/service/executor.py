"""One shared mining executor multiplexed across many sessions.

The paper runs one Apophenia instance per application; a production
deployment runs *many* independent token streams through one process. The
expensive part of an instance is the mining backend -- the suffix-array
analysis jobs -- so that is what the service shares:

* :class:`SharedJobExecutor` owns the repeat-finding algorithm, one
  cross-session :class:`~repro.core.jobs.MiningMemo`, the per-session
  submit queues, and the fair scheduler that drains them;
* :class:`SessionLane` is the per-session front: it satisfies the
  :class:`~repro.core.jobs.JobExecutor` interface a
  :class:`~repro.core.finder.TraceFinder` expects, so a session's finder
  is oblivious to the sharing.

Decision neutrality is the load-bearing invariant: a session served by a
lane must make *byte-identical* tbegin/tend decisions to running that
application alone. Three properties guarantee it:

1. **Identical completion times.** A lane numbers its own jobs from zero
   and feeds the same :func:`~repro.core.jobs.completion_op` model a
   standalone executor uses, in the session's own operation clock --
   op-clocks are never shared, so tenants cannot perturb each other's
   ingestion points.
2. **Identical results.** Mining is a pure function of
   ``(window, min_length)``; the shared memo is keyed exactly so (no node
   or session identity) and copies results in and out, so a hit from
   another tenant's insert returns the same value mining would have.
3. **Scheduling affects wall-clock only.** The fair scheduler decides
   *when the Python work runs*, not when results are ingested: ingestion
   is gated by the op-clock completion model, and a job drained before the
   scheduler reached it materializes on first access to ``job.result``.
"""

import itertools
from collections import deque

from repro.core.jobs import AnalysisJob, MiningMemo, completion_op
from repro.core.repeats import find_repeats
from repro.faults import (
    NULL_FAULT_PLAN,
    CircuitBreaker,
    InjectedMiningFault,
    MiningFault,
    resolve_fault_plan,
)


class _PendingMine:
    """A submitted job whose actual mining work has not run yet.

    ``counted`` tracks whether the entry still occupies queue budget:
    materializing (from the scheduler or a ``job.result`` force) and lane
    release each release the budget exactly once. ``fault`` is the
    injected fault decided at submit time -- deciding it there keeps the
    fault schedule a pure function of ``(stream, job_seq)``, independent
    of the order the shared scheduler happens to run the work.
    """

    __slots__ = ("job", "tokens", "min_length", "lane", "counted", "fault")

    def __init__(self, job, tokens, min_length, lane, fault=None):
        self.job = job
        self.tokens = tokens
        self.min_length = min_length
        self.lane = lane
        self.counted = False
        self.fault = fault


class SessionLane:
    """Per-session front of a :class:`SharedJobExecutor`.

    Drop-in compatible with :class:`~repro.core.jobs.JobExecutor` from the
    :class:`~repro.core.finder.TraceFinder`'s point of view: ``submit``
    plus the ``jobs_submitted`` / ``tokens_analyzed`` / ``memo_hits``
    counters. Job ids and the completion-time model are lane-local so the
    session's decisions match a standalone run byte for byte.
    """

    def __init__(self, shared, session_key, node_id=0, base_latency_ops=50,
                 per_token_latency_ops=0.05, priority=0,
                 quarantine_threshold=None):
        self.shared = shared
        self.session_key = session_key
        self.node_id = node_id
        self.base_latency_ops = base_latency_ops
        self.per_token_latency_ops = per_token_latency_ops
        self.priority = priority
        self.submit_queue = deque()
        self._ids = itertools.count()
        self._served_seq = next(shared._serve_counter)
        self.jobs_submitted = 0
        self.tokens_analyzed = 0
        self.memo_hits = 0
        #: Queued-but-unmined jobs still charged to this lane.
        self.outstanding = 0
        #: Times a submit hit the per-lane quota and drained its own work.
        self.quota_stalls = 0
        # Degradation accounting: failures are contained per job, and
        # the breaker quarantines this lane alone -- one faulty tenant
        # must not cost the others their shared scheduler.
        self.breaker = CircuitBreaker(quarantine_threshold)
        self.mining_failures = 0
        self.degraded_jobs = 0
        self.deadline_overruns = 0

    #: A lane holds no memo of its own: the shared executor's memo
    #: answers every lane and is reported once, service-wide.
    memo = None

    @property
    def quarantined(self):
        return self.breaker.quarantined

    @property
    def quota_limit(self):
        """The per-lane outstanding-job quota (``None``: unbounded)."""
        return self.shared.lane_outstanding_quota

    def submit(self, tokens, min_length, now_op):
        """Queue a mining job; returns its :class:`AnalysisJob`.

        The job's completion op is fixed here (it is part of the decision
        stream); the mining work itself runs when the shared scheduler
        reaches it, or lazily on first access to ``job.result``. A
        quarantined (or over-deadline) job resolves immediately to the
        empty degraded result and never occupies shared queue budget.
        """
        job_id = next(self._ids)
        shared = self.shared
        plan = shared.fault_plan
        fault = (
            plan.mining_fault(self.session_key, job_id) if plan.active
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
        deadline = shared.deadline_tokens
        if deadline is not None and len(tokens) > deadline:
            # Soft deadline, checked before the breaker (an over-budget
            # window says nothing about the tenant's health).
            self.deadline_overruns += 1
            shared.deadline_overruns += 1
            return self._degraded_job(job_id, now_op, completes, len(tokens))
        if not self.breaker.allow():
            return self._degraded_job(job_id, now_op, completes, len(tokens))
        # The finder hands over a freshly copied slice; the pending entry
        # takes ownership (no defensive copy, matching JobExecutor).
        pending = _PendingMine(None, tokens, min_length, self, fault)

        def force(job, pending=pending):
            self.shared._force(pending)

        job = AnalysisJob(
            job_id,
            now_op,
            completes,
            len(tokens),
            materialize=force,
        )
        pending.job = job
        self.shared._enqueue(pending)
        return job

    def _degraded_job(self, job_id, now_op, completes_at, num_tokens):
        """Resolve a job as degraded (empty result) without mining."""
        self.degraded_jobs += 1
        self.shared.degraded_jobs += 1
        return AnalysisJob(
            job_id, now_op, completes_at, num_tokens,
            result=[], degraded=True,
        )

    def __repr__(self):
        return (
            f"SessionLane({self.session_key!r}, node={self.node_id}, "
            f"queued={len(self.submit_queue)}, submitted={self.jobs_submitted})"
        )


class SharedJobExecutor:
    """Mining backend shared by every session of an Apophenia service.

    Parameters
    ----------
    repeats_algorithm:
        Callable ``(tokens, min_length) -> list[Repeat]`` shared by all
        lanes (sessions needing different algorithms need different
        services -- results must stay pure functions of the window).
    memo_capacity:
        Capacity of the cross-session :class:`MiningMemo`; 0 disables it.
    max_outstanding_jobs:
        Budget of queued-but-unmined jobs across all lanes. A submit that
        would exceed it forces the scheduler to drain the excess first
        (backpressure), bounding the memory the queues can hold.
    memo_token_budget:
        Optional size-aware admission budget for the shared memo, in
        tokens (:class:`MiningMemo`). ``None`` keeps entry-count LRU.
    lane_outstanding_quota:
        Per-lane bound on queued-but-unmined jobs. The global budget
        alone lets one runaway tenant fill the whole queue between pumps
        and ride every other tenant's backpressure drains; with a quota,
        a submit over the lane's own bound drains *that lane's* oldest
        work first, so the cost of a tenant's burst lands on the tenant.
        ``None`` disables the quota. Decision-neutral either way: drains
        only change when mining work runs, never its results or the
        op-clock completion times.
    """

    def __init__(self, repeats_algorithm=find_repeats, memo_capacity=256,
                 max_outstanding_jobs=64, memo_token_budget=None,
                 lane_outstanding_quota=None, fault_plan=None,
                 deadline_tokens=None, quarantine_threshold=None):
        self.repeats_algorithm = repeats_algorithm
        self.memo = (
            MiningMemo(memo_capacity, token_budget=memo_token_budget)
            if memo_capacity else None
        )
        self.max_outstanding_jobs = max_outstanding_jobs
        self.lane_outstanding_quota = lane_outstanding_quota
        self.fault_plan = (
            resolve_fault_plan(fault_plan) if fault_plan is not None
            else NULL_FAULT_PLAN
        )
        self.deadline_tokens = deadline_tokens
        #: Default per-lane breaker threshold; ``lane()`` may override.
        self.quarantine_threshold = quarantine_threshold
        self.lanes = {}
        self.outstanding = 0
        self._serve_counter = itertools.count()
        # Aggregate accounting.
        self.jobs_materialized = 0
        self.mines_executed = 0
        self.tokens_mined = 0
        self.backpressure_drains = 0
        self.lane_quota_drains = 0
        self.forced_out_of_order = 0
        self.mining_failures = 0
        self.degraded_jobs = 0
        self.deadline_overruns = 0

    # ------------------------------------------------------------------
    # Lane management
    # ------------------------------------------------------------------
    def lane(self, session_key, node_id=0, base_latency_ops=50,
             per_token_latency_ops=0.05, priority=0,
             quarantine_threshold=None):
        """Create the submit lane for a new session."""
        if session_key in self.lanes:
            raise ValueError(f"lane {session_key!r} already exists")
        lane = SessionLane(
            self,
            session_key,
            node_id=node_id,
            base_latency_ops=base_latency_ops,
            per_token_latency_ops=per_token_latency_ops,
            priority=priority,
            quarantine_threshold=(
                quarantine_threshold if quarantine_threshold is not None
                else self.quarantine_threshold
            ),
        )
        self.lanes[session_key] = lane
        return lane

    def release_lane(self, session_key):
        """Drop a closed session's lane and its queued work.

        Jobs still referenced by the departed session keep working: they
        materialize lazily on ``result`` access. They just stop occupying
        queue budget.
        """
        lane = self.lanes.pop(session_key, None)
        if lane is None:
            return None
        for pending in lane.submit_queue:
            if pending.counted:
                pending.counted = False
                self.outstanding -= 1
        lane.outstanding = 0
        lane.submit_queue.clear()
        return lane

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def pump(self, max_jobs=None):
        """Drain queued mining work fairly; returns jobs materialized.

        Each round serves the lane with the lowest ``priority`` number
        that has work, breaking ties by least-recently-served -- i.e.
        round-robin within a priority class, so one chatty tenant cannot
        starve the rest. Within a lane, jobs run in submission order.
        """
        ran = 0
        while max_jobs is None or ran < max_jobs:
            lane = self._next_lane()
            if lane is None:
                break
            pending = lane.submit_queue.popleft()
            lane._served_seq = next(self._serve_counter)
            if pending.job.materialized:
                continue  # forced out of order via job.result
            self._run(pending)
            ran += 1
        return ran

    def _next_lane(self):
        best = None
        for lane in self.lanes.values():
            if not lane.submit_queue:
                continue
            if best is None or (lane.priority, lane._served_seq) < (
                best.priority, best._served_seq
            ):
                best = lane
        return best

    def _enqueue(self, pending):
        lane = pending.lane
        lane.submit_queue.append(pending)
        pending.counted = True
        lane.outstanding += 1
        self.outstanding += 1
        quota = self.lane_outstanding_quota
        if quota is not None and lane.outstanding > quota:
            # The runaway lane pays for its own burst: drain its oldest
            # queued work, not the fair-share schedule.
            lane.quota_stalls += 1
            self.lane_quota_drains += 1
            self._drain_lane(lane, lane.outstanding - quota)
        if self.outstanding > self.max_outstanding_jobs:
            self.backpressure_drains += 1
            self.pump(self.outstanding - self.max_outstanding_jobs)

    def _drain_lane(self, lane, count):
        """Materialize up to ``count`` of ``lane``'s own queued jobs."""
        ran = 0
        while ran < count and lane.submit_queue:
            pending = lane.submit_queue.popleft()
            if pending.job.materialized:
                continue  # forced out of order via job.result
            self._run(pending)
            ran += 1
        return ran

    def _force(self, pending):
        """Materialize a job ahead of the scheduler (``job.result`` read).

        Its queue entry, if any, stays put and is skipped when the
        scheduler reaches it.
        """
        if pending.job.materialized:
            return
        self.forced_out_of_order += 1
        self._run(pending)

    def _run(self, pending):
        if pending.counted:
            pending.counted = False
            pending.lane.outstanding -= 1
            self.outstanding -= 1
        lane = pending.lane
        fault = pending.fault
        hit = False
        try:
            if fault is not None:
                # Injected at submit time (raise or overrun kinds; delay
                # was consumed into the completion op). Raised here --
                # inside the containment -- so it exercises exactly the
                # path a real mining exception takes.
                if fault.kind == MiningFault.OVERRUN:
                    lane.deadline_overruns += 1
                    self.deadline_overruns += 1
                raise InjectedMiningFault(
                    f"injected mining {fault.kind} "
                    f"(lane={lane.session_key!r})"
                )
            if self.memo is None:
                result = self.repeats_algorithm(
                    pending.tokens, pending.min_length
                )
            else:
                result, hit = self.memo.mine(
                    pending.tokens, pending.min_length, self.repeats_algorithm
                )
        except Exception:
            # Mining is advisory: contain the failure to this job, keep
            # the poisoned result out of the shared memo (MiningMemo
            # inserts only after the algorithm returns), and resolve the
            # job to the empty degraded value so the tenant's tracing
            # stream stays valid -- merely untraced.
            lane.mining_failures += 1
            lane.degraded_jobs += 1
            self.mining_failures += 1
            self.degraded_jobs += 1
            lane.breaker.record_failure()
            self.jobs_materialized += 1
            pending.job._fulfill([], degraded=True)
            pending.tokens = None
            return
        lane.breaker.record_success()
        if hit:
            lane.memo_hits += 1
        else:
            self.mines_executed += 1
            self.tokens_mined += len(pending.tokens)
        self.jobs_materialized += 1
        pending.job._fulfill(result)
        # The queue entry may linger until the scheduler pops (and skips)
        # it; drop the window so it cannot pin batchsize-long token lists.
        pending.tokens = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memo_hit_rate(self):
        return self.memo.hit_rate if self.memo is not None else 0.0

    @property
    def stats(self):
        return {
            "lanes": len(self.lanes),
            "outstanding": self.outstanding,
            "jobs_materialized": self.jobs_materialized,
            "mines_executed": self.mines_executed,
            "tokens_mined": self.tokens_mined,
            "memo_hits": self.memo.hits if self.memo is not None else 0,
            "memo_hit_rate": self.memo_hit_rate,
            "memo_tokens_held": (
                self.memo.tokens_held if self.memo is not None else 0
            ),
            "backpressure_drains": self.backpressure_drains,
            "lane_quota_drains": self.lane_quota_drains,
            "forced_out_of_order": self.forced_out_of_order,
            "mining_failures": self.mining_failures,
            "degraded_jobs": self.degraded_jobs,
            "deadline_overruns": self.deadline_overruns,
            "quarantined": sum(
                1 for lane in self.lanes.values() if lane.quarantined
            ),
        }
