"""One mining backend shared by the sessions of a service.

The paper runs one Apophenia instance per application; a production
deployment runs *many* independent token streams through one process. The
expensive part of an instance is the mining backend -- the suffix-array
analysis jobs -- so that is what the service shares:

* :class:`SharedJobExecutor` owns the repeat-finding algorithm, one
  cross-session :class:`~repro.core.jobs.MiningMemo`, the fault plan, and
  the single FIFO of queued jobs that ``pump()`` drains;
* :class:`SessionLane` is the per-session front: a
  :class:`~repro.core.jobs.JobExecutor` whose mining backend is the shared
  executor's and whose scheduling hook queues instead of mining.

Decision neutrality is the load-bearing invariant: a session served by a
lane must make *byte-identical* tbegin/tend decisions to running that
application alone. A lane **is** a ``JobExecutor``, so job ids, completion
ops, the fault schedule and the containment path are the standalone ones
by construction; what is left to argue is the memo. Mining is a pure
function of ``(window, min_length)``; the shared memo is keyed exactly so
(no node or session identity) and copies results in and out, so a hit
from another tenant's insert returns the same value mining would have.

The executor does not know its lanes: a lane points at the executor, the
session's processor holds the lane, and the only thing the two share
between calls is the (empty) FIFO.

There is no scheduler. Every public serving call of the service ends in
a ``pump()`` and a finder submits at most one job per token, so the FIFO
never holds more than one job (pinned by ``tests/test_service.py``); a
front door that queues without pumping must bring its own scheduler.
"""

from collections import deque

from repro.core.jobs import JobExecutor, MiningMemo
from repro.core.repeats import find_repeats
from repro.faults import resolve_fault_plan


class SessionLane(JobExecutor):
    """Per-session front of a :class:`SharedJobExecutor`.

    The per-stream half (job ids, completion model, breaker, counters) is
    its own; the mining backend is looked up on the shared executor at
    call time, so an instance-level wrapper there stays in the path.
    """

    def __init__(self, shared, session_key, base_latency_ops=50,
                 per_token_latency_ops=0.05, quarantine_threshold=None):
        self.shared = shared
        # Node 0: a service session is served by one node, never a replica.
        self._init_stream(session_key, 0, base_latency_ops,
                          per_token_latency_ops, quarantine_threshold)

    repeats_algorithm = property(lambda self: self.shared.repeats_algorithm)
    memo = property(lambda self: self.shared.memo)
    fault_plan = property(lambda self: self.shared.fault_plan)

    def _schedule(self, job):
        """Queue the job; the service's pump (or the first ``job.result``
        read, whichever comes first) runs the mining."""
        self.shared.queue.append(job)

    def __repr__(self):
        return (f"SessionLane({self.stream_key!r}, "
                f"submitted={self.jobs_submitted})")


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
    memo_token_budget:
        Optional size-aware admission budget for the shared memo, in
        tokens (:class:`MiningMemo`). ``None`` keeps entry-count LRU.
    fault_plan:
        As on :class:`~repro.core.jobs.JobExecutor`; every lane reads it
        here.
    """

    def __init__(self, repeats_algorithm=find_repeats, memo_capacity=256,
                 memo_token_budget=None, fault_plan=None):
        self.repeats_algorithm = repeats_algorithm
        self.memo = (
            MiningMemo(memo_capacity, token_budget=memo_token_budget)
            if memo_capacity else None
        )
        self.fault_plan = resolve_fault_plan(fault_plan)
        self.queue = deque()  # submitted, not yet pumped AnalysisJobs

    def lane(self, session_key, **stream):
        """A new :class:`SessionLane` over this executor; ``stream`` is
        the per-stream half of a ``JobExecutor``'s parameters. The lane
        belongs to the processor it is handed to -- the executor keeps no
        table of them, and a job a dropped lane still has queued keeps
        working (it carries its own mining thunk)."""
        return SessionLane(self, session_key, **stream)

    def pump(self):
        """Drain the FIFO; returns how many jobs were mined here (a job
        already forced through ``job.result`` is just dropped)."""
        queue = self.queue
        ran = 0
        while queue:
            job = queue.popleft()
            if not job.materialized:
                job.result
                ran += 1
        return ran
