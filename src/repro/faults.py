"""Deterministic fault injection for the mining/serving/replication stack.

Mining is *advisory* (Section 4.2): a mining job that fails is
semantically "no repeats found in this window", so the correct degraded
behaviour is a valid, merely untraced task stream -- never a crash, and
never corrupted shared state. This module makes that contract testable.

**The harness.**

* :class:`FaultPlan` -- a seedable, fully deterministic schedule of
  injected faults: a mining job *raises* or is *delayed*. It is keyed
  by ``(seed, stream, job_seq)`` through a process-stable hash, and
  ``stream`` is the session id on all three backends (a hand-driven
  ``ApopheniaProcessor`` keys on ``None``). So a chaos run reproduces
  bit-for-bit, one (plan, session id, stream) fails the same way
  wherever it is served, and the N replicas of one session fail
  identically (injected faults stay decision-neutral across a replica
  set).
* :class:`NullFaultPlan` -- the production default. Its ``active``
  attribute is ``False``, so every hot-path hook costs one attribute
  check and a branch; ``benchmarks/test_perf_faults.py`` pins the gate.
* :class:`CircuitBreaker` -- the per-executor quarantine state machine.

Plans flow through ``ApopheniaConfig.fault_plan``: a plan object, or a
compact spec string (:func:`parse_fault_spec`), so ``REPRO_FAULT_PLAN``
configures a chaos run without code changes; ``build_config(profile=
"chaos")`` is a ready-made seeded one. Each rate must be in [0, 1] and
so must their sum; a spec string that breaks that is a "bad fault
spec", and so is a retired key at any value but 0.

**The degradation ladder.** (1) *Job containment*: the one
:class:`~repro.core.jobs.JobExecutor` (a service lane is one) catches
any mining exception, injected or real, resolves the job to the empty
degraded result (``AnalysisJob.degraded``) and counts it once, in
``mining_failures`` and ``degraded_jobs``; a failed analysis never
enters a ``MiningMemo``, so tenant A's failure cannot answer tenant B's
identical window. A delayed job is healthy, only late: its completion
op moves and nothing is counted. (2) *Quarantine*:
``fault_quarantine_threshold`` consecutive failures trip the
executor's breaker; its jobs then resolve to pass-through results
without mining (``degraded_jobs`` only) until an exponential-backoff
probe (doubling, capped at :data:`MAX_PROBE_BACKOFF`) recovers it.
Quarantine is per tenant, and a quarantined session closes like a
healthy one. (3) *Replica drops*: a replicated session survives a
dead node -- ``SessionHandle.drop_node`` takes it out of the serving
set, the coordinator drops the dead consumer from its live set,
survivors keep byte-identical agreement, and the last live replica is
refused. A drop is local deployment state, never scheduled by a plan.

**Surface and properties.** Operations on a closed session raise
``SessionClosedError``. The gauges ``mining_failures``,
``degraded_jobs``, ``quarantined`` and ``live_nodes`` ride
``SessionStats`` and every backend's ``backend_stats``.
``tests/test_faults.py`` (``make verify-chaos``) checks that under
seeded plans scoped to some tenants the service never dies, every
tenant conserves its tasks, fault-free tenants are byte-identical to
their no-fault runs, chaos runs reproduce, and replicas agree through
mining faults and node drops.
"""

from numbers import Real

from repro.stablehash import mix64, stable_hash

#: Probe backoff is capped so a permanently faulty tenant still gets
#: probed at a bounded (if long) interval rather than never again.
MAX_PROBE_BACKOFF = 1024


class InjectedMiningFault(RuntimeError):
    """The exception an injected ``raise`` fault throws inside mining."""


class MiningFault:
    """One injected mining fault: the job raises, or completes late."""

    __slots__ = ("kind", "delay_ops")

    #: An exception is raised from inside the mining algorithm.
    RAISE = "raise"
    #: The job succeeds but completes ``delay_ops`` operations late.
    DELAY = "delay"

    def __init__(self, kind, delay_ops=0):
        self.kind = kind
        self.delay_ops = delay_ops

    def __repr__(self):
        if self.kind == self.DELAY:
            return f"MiningFault(delay, +{self.delay_ops} ops)"
        return f"MiningFault({self.kind})"


class NullFaultPlan:
    """The no-fault plan: production paths pay one attribute check.

    Every injection site is gated on ``plan.active`` before calling any
    method, so the null plan's methods exist only for callers that skip
    the gate (tests, tooling).
    """

    active = False

    def mining_fault(self, stream, job_seq):
        return None

    def __repr__(self):
        return "NullFaultPlan()"


#: Shared default instance (the plan is stateless).
NULL_FAULT_PLAN = NullFaultPlan()


def _stream_hash(stream):
    """Stable 32-bit identity of a stream key.

    Deliberately *not* Python's ``hash(str)``, which is randomized per
    process: fault schedules must be identical across processes (and
    across the node replicas of one session) for the same seed. The
    implementation lives in :mod:`repro.stablehash` (hoisted from here,
    bit-for-bit compatible); ``None`` keeps its historical zero so
    recorded chaos runs reproduce.
    """
    if stream is None:
        return 0
    return stable_hash(stream)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


class FaultPlan:
    """A deterministic, seedable schedule of injected faults.

    Parameters
    ----------
    seed:
        Root of all randomized decisions. Two plans with equal
        parameters inject identical faults for the same
        ``(stream, job_seq)`` pairs -- in particular, the N node
        replicas of one replicated session (which share a stream key)
        fail *identically*, which is what keeps injected faults
        decision-neutral across the replica set.
    mining_failure_rate / mining_delay_rate:
        Independent-per-job probabilities (each in [0, 1], summed too) of
        raising from the mining algorithm and of completing
        ``mining_delay_ops`` late.
    fail_jobs:
        Optional ``(lo, hi)`` half-open window of per-stream job
        sequence numbers that *always* raise -- the deterministic burst
        the quarantine tests use to trip and then recover a breaker.
    streams:
        Optional collection of stream keys the plan applies to;
        ``None`` applies to every stream. Scoping faults to a subset of
        tenants is how the chaos property test checks that fault-free
        tenants stay byte-identical.
    """

    active = True

    def __init__(self, seed=0, mining_failure_rate=0.0,
                 mining_delay_rate=0.0, mining_delay_ops=100,
                 fail_jobs=None, streams=None):
        # Every parameter is checked here, where a config validates: a
        # wrong type would otherwise raise (or skew a draw) mid-serving,
        # outside the fault containment.
        if not _is_int(seed):
            raise ValueError(f"seed must be an int, got {seed!r}")
        rates = {"mining_failure_rate": mining_failure_rate,
                 "mining_delay_rate": mining_delay_rate}
        for name, rate in rates.items():
            if (not isinstance(rate, Real) or isinstance(rate, bool)
                    or not 0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        total = sum(rates.values())
        if total > 1.0:
            raise ValueError(
                f"fault rates must sum to within [0, 1], got {total}"
            )
        if not _is_int(mining_delay_ops) or mining_delay_ops < 0:
            raise ValueError(
                f"mining_delay_ops must be an int >= 0, "
                f"got {mining_delay_ops!r}"
            )
        if fail_jobs is not None:
            window = (tuple(fail_jobs)
                      if isinstance(fail_jobs, (tuple, list)) else ())
            if (len(window) != 2 or not all(map(_is_int, window))
                    or window[0] < 0 or window[1] < window[0]):
                raise ValueError(f"bad fail_jobs window {fail_jobs!r}")
            fail_jobs = window
        if isinstance(streams, str):
            raise ValueError(f"streams must be a collection, not {streams!r}")
        self.seed = seed
        self.mining_failure_rate = mining_failure_rate
        self.mining_delay_rate = mining_delay_rate
        self.mining_delay_ops = mining_delay_ops
        self.fail_jobs = fail_jobs
        self.streams = frozenset(streams) if streams is not None else None

    def applies_to(self, stream):
        return self.streams is None or stream in self.streams

    def mining_fault(self, stream, job_seq):
        """The fault injected into job ``job_seq`` of ``stream``, if any.

        A pure function: callers may consult it at submit time, record
        the answer, and apply it when the mining work actually runs
        (lazy service lanes do exactly that), without the answer
        depending on scheduling order.
        """
        if not self.applies_to(stream):
            return None
        if self.fail_jobs is not None:
            lo, hi = self.fail_jobs
            if lo <= job_seq < hi:
                return MiningFault(MiningFault.RAISE)
        u = mix64(self.seed, _stream_hash(stream), job_seq) / 2.0 ** 64
        if u < self.mining_failure_rate:
            return MiningFault(MiningFault.RAISE)
        u -= self.mining_failure_rate
        if u < self.mining_delay_rate:
            return MiningFault(MiningFault.DELAY, self.mining_delay_ops)
        return None

    def __repr__(self):
        parts = [f"seed={self.seed}"]
        for name in ("mining_failure_rate", "mining_delay_rate"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name}={value}")
        if self.fail_jobs is not None:
            parts.append(f"fail_jobs={self.fail_jobs}")
        if self.streams is not None:
            parts.append(f"streams={sorted(map(repr, self.streams))}")
        return f"FaultPlan({', '.join(parts)})"


def parse_fault_spec(text):
    """Parse the compact ``REPRO_FAULT_PLAN`` spec string into a plan.

    Format: comma-separated ``key=value`` pairs over the
    :class:`FaultPlan` parameters, with three compound spellings::

        "seed=7,mining_failure_rate=0.1"
        "fail_jobs=3:9"                  # half-open job-seq window
        "streams=tenant-a+tenant-b"      # plan scoped to these streams

    ``"null"`` / ``"none"`` / ``""`` name the :data:`NULL_FAULT_PLAN`.
    The retired ``mining_overrun_rate`` (it simulated a soft mining
    deadline that is gone, by the raise path) is accepted at 0 only;
    the retired ``drop_nodes`` schedule is refused at any value (a
    replica leaves its set through the handle's ``drop_node()``).
    """
    text = text.strip()
    if text.lower() in ("", "null", "none", "off"):
        return NULL_FAULT_PLAN
    kwargs = {}
    try:
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, raw = item.partition("=")
            if not eq:
                raise ValueError(f"item {item!r} is not key=value")
            key = key.strip()
            raw = raw.strip()
            if key in ("seed", "mining_delay_ops"):
                kwargs[key] = int(raw)
            elif key in ("mining_failure_rate", "mining_delay_rate"):
                kwargs[key] = float(raw)
            elif key == "mining_overrun_rate":
                if float(raw) != 0:
                    raise ValueError(f"{key} is retired; only 0 is accepted")
            elif key == "fail_jobs":
                lo, _, hi = raw.partition(":")
                kwargs[key] = (int(lo), int(hi))
            elif key == "drop_nodes":
                raise ValueError(
                    f"{key} is retired; drop a replica with the session "
                    f"handle's drop_node()"
                )
            elif key == "streams":
                kwargs[key] = tuple(raw.split("+"))
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        # Inside the ``try``: a value FaultPlan refuses is a bad spec too.
        return FaultPlan(**kwargs)
    except ValueError as exc:
        raise ValueError(f"bad fault spec {text!r}: {exc}") from None


def resolve_fault_plan(plan):
    """Coerce a config-level ``fault_plan`` value into a plan object.

    Accepts ``None`` (the null plan), a spec string
    (:func:`parse_fault_spec` -- the ``REPRO_FAULT_PLAN`` path), or any
    object already exposing the plan interface (``active`` plus
    ``mining_fault``).
    """
    if plan is None:
        return NULL_FAULT_PLAN
    if isinstance(plan, str):
        return parse_fault_spec(plan)
    if hasattr(plan, "active") and hasattr(plan, "mining_fault"):
        return plan
    raise ValueError(
        f"fault_plan must be None, a spec string, or a FaultPlan-shaped "
        f"object; got {plan!r}"
    )


class CircuitBreaker:
    """Consecutive-failure quarantine with exponential-backoff probes.

    State machine (per lane / per executor):

    * **healthy** -- mining runs normally; ``threshold`` *consecutive*
      failures trip the breaker (any success resets the streak).
    * **quarantined** -- :meth:`allow` answers ``False`` (the lane
      serves degraded pass-through results) for ``backoff`` calls, then
      admits exactly one **probe** job.
    * a successful probe recovers the breaker to healthy; a failed
      probe re-quarantines with the backoff doubled (capped at
      :data:`MAX_PROBE_BACKOFF`).

    ``threshold=None`` (or 0) disables the breaker: :meth:`allow` is
    always ``True`` and failures are only counted.
    """

    __slots__ = ("threshold", "consecutive_failures", "quarantined",
                 "probing", "backoff", "backoff_remaining", "trips",
                 "probes", "recoveries")

    def __init__(self, threshold):
        self.threshold = threshold
        self.consecutive_failures = 0
        self.quarantined = False
        self.probing = False
        self.backoff = 0
        self.backoff_remaining = 0
        self.trips = 0
        self.probes = 0
        self.recoveries = 0

    def allow(self):
        """May the next mining job actually run? Call once per job."""
        if not self.quarantined:
            return True
        if self.probing:
            # One probe in flight; everything else stays degraded until
            # its outcome is recorded.
            return False
        if self.backoff_remaining > 0:
            self.backoff_remaining -= 1
            return False
        self.probing = True
        self.probes += 1
        return True

    def record_success(self):
        self.consecutive_failures = 0
        if self.quarantined:
            self.quarantined = False
            self.recoveries += 1
        self.probing = False

    def record_failure(self):
        self.consecutive_failures += 1
        if self.probing:
            # Failed probe: still faulty, back off twice as long.
            self.probing = False
            self.backoff = min(self.backoff * 2, MAX_PROBE_BACKOFF)
            self.backoff_remaining = self.backoff
        elif (not self.quarantined and self.threshold
                and self.consecutive_failures >= self.threshold):
            self.quarantined = True
            self.trips += 1
            self.backoff = max(2, self.threshold)
            self.backoff_remaining = self.backoff

    def __repr__(self):
        if self.quarantined:
            state = f"quarantined, backoff={self.backoff_remaining}"
        else:
            state = f"healthy, streak={self.consecutive_failures}"
        return f"CircuitBreaker(threshold={self.threshold}, {state})"


__all__ = [
    "CircuitBreaker",
    "FaultPlan",
    "InjectedMiningFault",
    "MAX_PROBE_BACKOFF",
    "MiningFault",
    "NULL_FAULT_PLAN",
    "NullFaultPlan",
    "parse_fault_spec",
    "resolve_fault_plan",
]
