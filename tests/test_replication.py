"""Control replication: identical decisions across nodes (Section 5.1)."""

import pytest

from repro.core.coordination import IngestCoordinator
from repro.core.processor import ApopheniaConfig
from repro.runtime.privilege import Privilege
from repro.runtime.runtime import Runtime
from repro.runtime.task import task
from repro.service.replicated import ReplicatedBackend

pytestmark = pytest.mark.replication

RO = Privilege.READ_ONLY
WD = Privilege.WRITE_DISCARD

CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=40,
    initial_ingest_margin_ops=10,  # deliberately tight: forces waits
)


def open_replicated(num_nodes, config=CONFIG):
    """One replicated session over caller-owned per-node runtimes (nodes
    own distinct region forests, so tasks are rebuilt per node)."""
    backend = ReplicatedBackend(config.with_overrides(num_nodes=num_nodes))
    return backend.open_session(
        "replicated-run",
        runtimes=[Runtime(analysis_mode="fast") for _ in range(num_nodes)],
    )


def run_replicated(num_nodes, iterations, config=CONFIG):
    run = open_replicated(num_nodes, config)
    region_sets = []
    for runtime in run.runtimes:
        f = runtime.forest
        region_sets.append(
            {n: f.create_region((32,), name=n) for n in ("a", "b", "c", "d")}
        )

    def make(kind):
        def build(node):
            r = region_sets[node]
            if kind == 0:
                return task("STEP0", (r["a"], RO), (r["b"], WD))
            if kind == 1:
                return task("STEP1", (r["b"], RO), (r["c"], WD))
            return task("STEP2", (r["c"], RO), (r["d"], WD))

        return build

    for i in range(iterations):
        run.set_iteration(i)
        for kind in range(3):
            # One structurally identical copy per node, against that
            # node's own region forest.
            for processor in run.processors:
                processor.execute_task(make(kind)(processor.node_id))
    run.flush()
    return run


class TestAgreement:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_all_nodes_issue_identical_traces(self, nodes):
        run = run_replicated(nodes, 150)
        assert run.decisions_agree(), run.decision_traces()

    def test_traces_actually_fired(self):
        run = run_replicated(2, 150)
        assert run.processors[0].trace_log  # not vacuous

    def test_jitter_differs_but_results_agree(self):
        run = run_replicated(4, 150)
        # Per-node async jobs completed at different op counts...
        completions = set()
        for proc in run.processors:
            completions.add(proc.executor.jobs_submitted)
        # ...but submissions are deterministic and equal.
        assert len(completions) == 1

    def test_margin_growth_recorded_on_tight_margin(self):
        run = run_replicated(2, 150)
        # Initial margin of 10 ops is far below job latency: the protocol
        # must have grown it.
        assert run.coordinator.margin_ops > 10

    def test_divergence_without_coordination(self):
        """Sanity for the test itself: per-node completion times really do
        differ (so agreement is doing actual work). We check that at
        least one job's completion op differs across nodes."""
        run = open_replicated(2)
        ops = []
        for proc in run.processors:
            job = proc.executor.submit(list("abcabc") * 10, 3, now_op=0)
            ops.append(job.completes_at_op)
        assert ops[0] != ops[1]

    def test_single_node_trivially_agrees(self):
        run = run_replicated(1, 60)
        assert run.decisions_agree()

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            ReplicatedBackend(CONFIG.with_overrides(num_nodes=0))

    def test_shared_coordinator_instance(self):
        """The replica set shares one coordinator -- the session's own."""
        run, other = open_replicated(2), open_replicated(2)
        assert isinstance(run.coordinator, IngestCoordinator)
        assert all(p.coordinator is run.coordinator for p in run.processors)
        assert run.coordinator.nodes == {0, 1}
        assert other.coordinator is not run.coordinator
