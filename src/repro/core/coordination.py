"""Distributed ingestion agreement (Section 5.1).

Under dynamic control replication every node runs the application and must
issue the *same* sequence of operations to Legion -- including Apophenia's
trace begin/end operations. The only source of non-determinism in
Apophenia is the completion time of the asynchronous buffer analyses: a
fast node could ingest candidates (and start replaying a trace) before a
slow node has even finished mining.

The paper's protocol: all nodes agree on a *count of processed operations*
at which each analysis's results will be ingested. If any node reaches the
agreed count before its local copy of the analysis has completed, it must
wait -- and all nodes then increase the agreed margin for subsequent
analyses, reaching a steady state where results are ingested
deterministically without stalling.

:class:`IngestCoordinator` is the shared agreement object (standing in for
the collective communication a real implementation would use). Each node
registers its job completion estimates; the coordinator hands out a single
agreed ingest operation count per job index.

One coordinator serves one replica set: the backend builds it with the
session's node processors, every processor registers its node id at
construction, and it goes when the session's handle goes -- so its tables
are keyed by the job index alone and nothing outlives the session that
has to be released.

**Bounded state.** Agreements are consumed exactly once per node (a node
pops each mining job from its FIFO pending queue the first time its clock
passes the agreed point), so once every live node has :meth:`retire`-d a
job its entry is pruned. Without pruning a perpetually-running tenant
leaks one table entry per mining job.
"""


class IngestCoordinator:
    """Agreement on per-job ingestion points across one replica set.

    Parameters
    ----------
    initial_margin_ops:
        Starting margin (operations after submission) at which analysis
        results are ingested; it doubles (at least) whenever any node
        had to wait.
    """

    def __init__(self, initial_margin_ops=128):
        self.margin_ops = initial_margin_ops
        self.nodes = set()  # live node ids: who must consume each entry
        self._agreed = {}  # job_index -> agreed ingest op (fixed at first ask)
        self._consumed = {}  # job_index -> node ids that ingested past it
        self.waits = 0
        self.agreements_issued = 0
        self.agreements_pruned = 0
        self.nodes_dropped = 0

    def register_node(self, node_id):
        """Declare a consuming node (called by each node processor).

        Registration must happen before any agreement is retired --
        construction-time registration satisfies this, since replicated
        deployments build every node processor before serving a task.
        """
        self.nodes.add(node_id)

    @property
    def agreement_table_size(self):
        """Live (issued, not yet fully consumed) agreement entries."""
        return len(self._agreed)

    def agree(self, job_index, submitted_at_op):
        """Fix (or look up) the agreed ingest point for ``job_index``.

        All nodes submit job ``job_index`` at the same operation count (the
        sampling schedule is deterministic), so the first node to call this
        fixes the agreement and the rest observe the same value.
        """
        agreed = self._agreed.get(job_index)
        if agreed is None:
            agreed = submitted_at_op + self.margin_ops
            self._agreed[job_index] = agreed
            self.agreements_issued += 1
        return agreed

    def report_wait(self, job_index, lateness_ops):
        """A node reached the ingest point before its analysis finished.

        The margin for future analyses grows so the steady state stops
        stalling. Returns the new margin.
        """
        self.waits += 1
        needed = self.margin_ops + max(1, lateness_ops)
        self.margin_ops = max(needed, 2 * self.margin_ops)
        return self.margin_ops

    def retire(self, job_index, node):
        """Node ``node`` consumed (ingested past) the agreement for
        ``job_index``.

        Every node pops each job from its FIFO pending queue exactly once,
        so tracking consumers against the live node set tells the
        coordinator when no node will ever ask about this job again -- at
        which point the entry is pruned, keeping the agreement table
        bounded by the number of in-flight jobs rather than growing one
        entry per mining job for the life of the tenant.

        Consumers are identified, which keeps pruning exact under
        :meth:`drop_node`: an entry is pruned only once every *live* node
        consumed it, so a dead node's earlier retires cannot prune an
        entry a surviving node still needs (re-agreeing after the margin
        grew would make the survivor ingest at a different point:
        divergence).
        """
        if job_index in self._agreed:
            self._consumed.setdefault(job_index, set()).add(node)
            self._maybe_prune(job_index)

    def _maybe_prune(self, job_index):
        if self.nodes <= self._consumed[job_index]:
            del self._agreed[job_index]
            del self._consumed[job_index]
            self.agreements_pruned += 1

    def drop_node(self, node_id):
        """A replica died mid-run: stop counting it as a consumer.

        Removes the node from the live set and re-examines the
        outstanding agreements -- entries only the dead node had yet to
        consume become prunable immediately. Returns the number of
        entries pruned by the drop.
        """
        self.nodes.discard(node_id)
        self.nodes_dropped += 1
        before = self.agreements_pruned
        for job_index in list(self._consumed):
            self._maybe_prune(job_index)
        return self.agreements_pruned - before
