"""Client-API quickstart: one session lifecycle, any deployment.

The same tiny iterative application is served four times through
``repro.api.open_session`` -- by a standalone processor, as a tenant of
a shared multi-tenant service, control-replicated across three nodes,
and under a seeded fault-injection plan -- with *identical client code*
between the runs. The facade
guarantees the standalone and service decisions are byte-identical (the
service only changes throughput, never decisions), which the final
assertion checks via ``Session.snapshot()``; the replicated run instead
demonstrates the Section 5.1 agreement protocol: every node replica
issues the identical decision stream even though their asynchronous
analyses complete at different (jittered) times.

Also shown: named configuration profiles with keyword overrides
(``build_config``), and the uniform ``SessionStats`` surface that
replaces reaching into processor internals -- including the coordinator
gauges (waits, ingestion margin, agreement-table size) the replicated
backend surfaces, and the degradation gauges (mining failures, degraded
jobs, quarantine, live nodes) a fourth run under a seeded chaos fault
plan exercises.

Run:  python examples/api_quickstart.py
"""

import repro.api as api
from repro.runtime.privilege import Privilege
from repro.runtime.task import task

RO, RW, WD = Privilege.READ_ONLY, Privilege.READ_WRITE, Privilege.WRITE_DISCARD
ITERATIONS = 300

# Profile + overrides + REPRO_* environment, validated in one call.
CONFIG = api.build_config(
    profile="paper-default",
    min_trace_length=3,
    batchsize=120,
    multi_scale_factor=30,
)


def drive(session):
    """The application: three tasks per iteration, oblivious to what
    kind of backend is serving it."""
    forest = session.runtime.forest
    grid = forest.create_region((1 << 20,), name="grid")
    flux = forest.create_region((1 << 20,), name="flux")
    for i in range(ITERATIONS):
        session.set_iteration(i)
        session.submit(task("COMPUTE_FLUX", (grid, RO), (flux, WD),
                            exec_cost=3e-4))
        session.submit(task("APPLY_FLUX", (flux, RO), (grid, RW),
                            exec_cost=3e-4))
        session.submit(task("BOUNDARY", (grid, RW), exec_cost=2e-4))
    session.flush()
    return session.stats(), session.snapshot()


def main():
    # Deployment 1: a standalone processor, built for us.
    with api.open_session("solo", config=CONFIG) as session:
        solo_stats, solo_snapshot = drive(session)

    # Deployment 2: the same application as one tenant of a service.
    service = api.ApopheniaService(CONFIG)
    with api.open_session("tenant", backend=service) as session:
        service_stats, service_snapshot = drive(session)

    # Deployment 3: the same application control-replicated on 3 nodes,
    # one shared ingestion coordinator per session (Section 5.1). The
    # tight initial margin forces the protocol to wait and grow before
    # reaching its steady state.
    with api.open_session(
        "replica-set", backend="replicated",
        config=CONFIG.with_overrides(num_nodes=3,
                                     initial_ingest_margin_ops=10),
    ) as session:
        replicated_stats, _ = drive(session)
        nodes_agree = session.handle.decisions_agree()

    # Deployment 4: the same application under a seeded chaos plan --
    # deterministic injected mining failures.
    # Mining is advisory, so the session degrades gracefully (failed
    # analyses become "no repeats found") instead of crashing; the
    # degradation gauges on the same uniform stats surface say how much
    # fault containment the run absorbed.
    with api.open_session(
        "chaos", config=CONFIG.with_overrides(
            fault_plan="seed=1234,mining_failure_rate=0.3",
        ),
    ) as session:
        chaos_stats, _ = drive(session)

    print(f"API quickstart: {ITERATIONS} iterations x 3 tasks, "
          "served four ways")
    for label, stats in (("standalone", solo_stats),
                         ("service", service_stats)):
        print(f"  {label:10s} replay fraction: {stats.replay_fraction:6.1%}  "
              f"traces fired: {stats.traces_fired:3d}  "
              f"memo hit rate: {stats.memo_hit_rate:6.1%}")
        # Serving-path gauges from the replay-engine refactor: how deep
        # the live pointer set got, how many per-token pointer walks the
        # deduplicating match engine collapsed away, and how often
        # scoring hysteresis kept a proven trace from being churned
        # (0 here -- hysteresis is off under default knobs).
        print(f"  {'':10s} pointer peak: {stats.active_pointer_peak:5d}  "
              f"walks collapsed: {stats.pointer_collapses:6d}  "
              f"hysteresis suppressions: {stats.hysteresis_suppressed}")

    # The replicated deployment: N nodes, one agreement protocol. The
    # coordinator gauges come from the same uniform stats surface.
    print(f"  {'replicated':10s} replay fraction: "
          f"{replicated_stats.replay_fraction:6.1%}  "
          f"nodes: {replicated_stats.nodes}  "
          f"waits: {replicated_stats.coordinator_waits}  "
          f"margin: 10 -> {replicated_stats.ingest_margin_ops} ops  "
          f"live agreements: {replicated_stats.agreement_table_size}")

    # The chaos deployment: graceful degradation under injected faults.
    print(f"  {'chaos':10s} replay fraction: "
          f"{chaos_stats.replay_fraction:6.1%}  "
          f"mining failures: {chaos_stats.mining_failures}  "
          f"degraded jobs: {chaos_stats.degraded_jobs}  "
          f"quarantined: {chaos_stats.quarantined}  "
          f"live nodes: {chaos_stats.live_nodes}")
    assert chaos_stats.mining_failures > 0  # the plan actually fired
    assert chaos_stats.tasks_seen == (
        chaos_stats.tasks_flushed + chaos_stats.tasks_traced
    ), "degraded sessions must conserve every task"

    # The deployment-agnosticism contract: identical decisions.
    assert solo_snapshot.decisions == service_snapshot.decisions, (
        "backends must change throughput, never decisions"
    )
    assert solo_stats.replay_fraction > 0.8
    assert nodes_agree, "replicated nodes must issue identical streams"
    print("  decision streams byte-identical across backends: yes")
    print("  replicated node replicas issued identical streams: yes")


if __name__ == "__main__":
    main()
