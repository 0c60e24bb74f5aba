"""Multi-tenant quickstart: two applications, one Apophenia service.

Two tenants run the same three-task iterative application through the
``repro.api`` client surface, served by a single
:class:`ApopheniaService` over ONE shared mining executor: identical
history windows are mined once and answered from the cross-session memo
for everyone else, while each session keeps its own finder, replayer,
and runtime -- so each tenant's tracing decisions are exactly what it
would have seen running alone.

The tenants never touch the service object after session open: they hold
:class:`repro.api.Session` facades, the same lifecycle standalone
deployments use (see ``examples/api_quickstart.py``).

Run:  python examples/multi_tenant_quickstart.py
"""

import repro.api as api
from repro.runtime.privilege import Privilege
from repro.runtime.runtime import Runtime
from repro.runtime.task import task

RO, RW, WD = Privilege.READ_ONLY, Privilege.READ_WRITE, Privilege.WRITE_DISCARD
ITERATIONS = 300

CONFIG = api.build_config(
    profile="service",       # consolidated, size-aware shared memo
    min_trace_length=3,
    batchsize=120,
    multi_scale_factor=30,
    max_sessions=16,         # LRU-evict beyond this many concurrent tenants
)


def main():
    # Session runtimes default to no per-task log; bring our own (a
    # Runtime keeps one by default) so the traced fraction can be reported.
    service = api.ApopheniaService(CONFIG)
    sessions = {
        tenant: api.open_session(
            tenant, backend=service,
            runtime=Runtime(analysis_mode="fast", mismatch_policy="fallback"),
        )
        for tenant in ("alice", "bob")
    }
    regions = {}
    for tenant, session in sessions.items():
        forest = session.runtime.forest
        regions[tenant] = (
            forest.create_region((1 << 20,), name="grid"),
            forest.create_region((1 << 20,), name="flux"),
        )

    # Interleave the tenants' iterations, as concurrent traffic would.
    for i in range(ITERATIONS):
        for tenant, session in sessions.items():
            grid, flux = regions[tenant]
            session.set_iteration(i)
            session.submit(task("COMPUTE_FLUX", (grid, RO), (flux, WD),
                                exec_cost=3e-4))
            session.submit(task("APPLY_FLUX", (flux, RO), (grid, RW),
                                exec_cost=3e-4))
            session.submit(task("BOUNDARY", (grid, RW), exec_cost=2e-4))
    service.flush_all()

    shared = service.backend_stats
    print(f"Multi-tenant quickstart: {len(sessions)} tenants x "
          f"{ITERATIONS} iterations x 3 tasks")
    for tenant, session in sessions.items():
        stats = session.stats()
        print(f"  {tenant:6s} traced: "
              f"{session.runtime.traced_fraction():6.1%}  "
              f"replays: {session.runtime.engine.traces_replayed:4d}  "
              f"lane memo hits: {stats.memo_hits:3d}")
    print(f"  mining jobs answered by the shared memo: "
          f"{shared['memo_hits']} of {shared['jobs_submitted']} "
          f"({shared['memo_hit_rate']:.1%})")

    # Identical tenants submit identical windows: the second submission of
    # every window is a memo hit, so sharing halves the mining work.
    assert shared["memo_hit_rate"] >= 0.5
    # Both tenants ended up tracing the bulk of their streams.
    for tenant, session in sessions.items():
        assert session.runtime.traced_fraction() > 0.8
        session.close()


if __name__ == "__main__":
    main()
