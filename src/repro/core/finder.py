"""The trace finder (Section 4.2 and Algorithm 1, lines 3-9).

The finder accumulates the hash-token stream into a bounded history buffer
and, following the multi-scale sampling schedule (Section 4.4), submits
asynchronous mining jobs over recent slices of the buffer. Completed jobs
are drained by the trace replayer, which ingests the found repeats into
its candidate trie.
"""

from collections import deque
from itertools import islice

from repro.core.sampler import MultiScaleSampler


class TraceFinder:
    """Accumulates tokens and schedules asynchronous repeat mining.

    Parameters
    ----------
    executor:
        :class:`repro.core.jobs.JobExecutor` used to run the mining jobs.
    batchsize:
        History buffer capacity (the artifact's ``-lg:auto_trace:batchsize``).
    multi_scale_factor:
        Trigger granularity of the sampling schedule.
    min_trace_length:
        Minimum repeat length to mine for.

    The op clock ``ops_observed`` is the schedule's only state: the
    :class:`~repro.core.sampler.MultiScaleSampler` reads each trigger
    off it. ``multi_scale_factor == batchsize`` is the "fixed" strawman
    Section 4.4 improves on (mine the whole buffer each time it fills).
    """

    def __init__(
        self,
        executor,
        batchsize=5000,
        multi_scale_factor=250,
        min_trace_length=5,
    ):
        self.executor = executor
        self.batchsize = batchsize
        self.min_trace_length = min_trace_length
        self.buffer = deque(maxlen=batchsize)
        self.sampler = MultiScaleSampler(multi_scale_factor, batchsize)
        self.ops_observed = 0
        self.pending_jobs = deque()

    def observe(self, token):
        """Record one stream token; maybe submit a mining job.

        Returns the submitted :class:`~repro.core.jobs.AnalysisJob` or
        ``None``.
        """
        self.buffer.append(token)
        self.ops_observed += 1
        slice_size = self.sampler.size_at(self.ops_observed)
        if slice_size is None:
            return None
        # Copy only the analyzed tail. A deque iterates O(1) per step from
        # either end, so walking ``reversed(buffer)`` for ``slice_size``
        # steps costs O(slice); slicing ``list(buffer)`` would pay
        # O(batchsize) per trigger regardless of the slice mined.
        if slice_size >= len(self.buffer):
            tokens = list(self.buffer)
        else:
            tokens = list(islice(reversed(self.buffer), slice_size))
            tokens.reverse()
        if len(tokens) < 2 * self.min_trace_length:
            # A repeat cannot fit twice; skip the analysis entirely.
            return None
        job = self.executor.submit(tokens, self.min_trace_length, self.ops_observed)
        self.pending_jobs.append(job)
        return job

    def drain_completed(self, now_op, coordinator=None, node=None):
        """Yield jobs whose agreed ingestion point has been reached.

        Jobs are drained in submission order (FIFO), matching the
        deterministic ingestion requirement of Section 5.1. When a
        coordinator is supplied, its agreed ingest point gates each job
        and late jobs report a wait (growing the margin); ``node``
        identifies this consumer so the coordinator's pruning stays
        exact when a replica drops out.
        Popping a job consumes its agreement
        (:meth:`~repro.core.coordination.IngestCoordinator.retire`), so
        the coordinator can prune entries every node has ingested past.
        """
        ready = []
        while self.pending_jobs:
            job = self.pending_jobs[0]
            if coordinator is not None:
                agreed = coordinator.agree(job.job_id, job.submitted_at_op)
                if now_op < agreed:
                    break
                if not job.complete_by(now_op):
                    coordinator.report_wait(
                        job.job_id, job.completes_at_op - now_op
                    )
            elif not job.complete_by(now_op):
                break
            ready.append(self.pending_jobs.popleft())
            if coordinator is not None:
                coordinator.retire(job.job_id, node)
        return ready
