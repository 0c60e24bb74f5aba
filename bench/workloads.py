"""The six benchmark workloads: seeded streams, backends, client schedule.

A workload is a set of tenant streams, the backend that serves them and
the order in which the single client thread issues them. Streams are
generated once per set-up as *templates* (everything a launch needs
except the ``Task`` object); every round builds fresh ``Task`` and
``RegionRequirement`` objects from the templates, because a real
application builds a new ``Task`` per launch and so pays the signature
build that a reused object would hide.

The seed drives the generative phase-graph seed, the ``novel`` stream's
random region pairs, and the task names of every application stream
(``NAME~<seed>``): another seed is another token stream of the same
shape. It does not shift a stream against the sampler's schedule: where
the application's period falls is chaotic for warm-up (dropping 0-499
head tasks of ``s3d`` moved ``warmup_tasks`` between 3.5k and 23k), so a
seeded shift would make the deterministic metrics differ between seeds
by more than any bound allows.
"""

import hashlib
import random
from dataclasses import dataclass, field, replace

import repro.api as api
from repro.apps.base import AppConfig, get_app
from repro.apps.generative import PHASE_GRAPHS
from repro.apps.jacobi import jacobi_task_stream
from repro.runtime.privilege import Privilege
from repro.runtime.region import RegionForest
from repro.runtime.task import RegionRequirement, Task

#: ``task`` slot of a schedule entry that re-admits its tenant.
ADMIT = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: One entry per tenant stream: an application name,
    #: ``"generative:<graph>"`` or ``"novel"``.
    streams: tuple
    tasks_per_stream: int
    backend: str  # "standalone" | "service" | "replicated"
    #: Laid over the ``paper-default`` profile.
    overrides: dict = field(default_factory=dict)
    #: Tasks a tenant submits per turn of the round-robin.
    burst: int = 1
    #: Tenants go through ``open_session`` again at every turn.
    readmit: bool = False

    def config(self):
        """The resolved config; ``env={}`` keeps ambient ``REPRO_*``
        variables from changing the program under test."""
        return api.build_config(
            profile="paper-default", env={}, **self.overrides
        )

    def quick(self):
        """The smoke-test size: at most 2000 tasks in total, a buffer a
        tenth of the real one so traces still fire."""
        overrides = dict(self.overrides)
        if "batchsize" not in overrides:
            overrides.update(batchsize=500, multi_scale_factor=25)
        return replace(
            self, tasks_per_stream=2000 // len(self.streams),
            overrides=overrides, burst=max(1, self.burst // 10),
        )


_TENANTS = ("s3d", "stencil", "jacobi", "cfd") * 2
_TENANT_OVERRIDES = {
    "batchsize": 1000,
    "multi_scale_factor": 25,
    "shared_memo_capacity": 1024,
}

WORKLOADS = {w.name: w for w in (
    Workload(
        "steady_s3d",
        "the paper's flagship iterative app: 75 signatures, replay ~0.94,"
        " private memo never hits, so mining does the most work",
        ("s3d",), 60_000, "standalone",
    ),
    Workload(
        "adversarial_gen",
        "drifting phase graph keeps breaking exact repeats: many live"
        " candidates, match engine, policy and commit-reprocess dominate",
        ("generative:adversarial",), 60_000, "standalone",
    ),
    Workload(
        "irregular_novel",
        "all-distinct signatures: nothing to trace, the trie stays empty,"
        " every token is a hash-cache miss; bypasses match/policy work",
        ("novel",), 60_000, "standalone",
    ),
    Workload(
        "service_8x",
        "8 tenants round-robin on one service: shared memo hits ~79%, so"
        " mining is bypassed and the service hot path is exercised",
        _TENANTS, 8_000, "service",
        overrides={**_TENANT_OVERRIDES, "max_sessions": 8},
    ),
    Workload(
        "tenant_churn",
        "same 8 streams on 4 session slots in 500-task bursts: every turn"
        " evicts, dehydrates and warm-starts, so persistence is the cost",
        _TENANTS, 8_000, "service",
        overrides={**_TENANT_OVERRIDES, "max_sessions": 4,
                   "session_state_budget": 10_000_000},
        burst=500, readmit=True,
    ),
    Workload(
        "replicated_2n",
        "the two-node deployment: every submit runs on both replicas"
        " through the ingest coordinator and the per-session shared memo",
        ("s3d",), 30_000, "replicated", overrides={"num_nodes": 2},
    ),
)}


# ----------------------------------------------------------------------
# Stream templates
# ----------------------------------------------------------------------
class _Capture:
    """Stands in for the runtime: collects launched tasks."""

    def __init__(self):
        self.tasks = []

    def execute_task(self, task):
        self.tasks.append(task)


def _template(iteration, task, seed):
    return (
        iteration,
        f"{task.name}~{seed}",
        tuple(
            (req.region, req.privilege, req.fields, req.redop)
            for req in task.requirements
        ),
        task.exec_cost,
        task.comm_cost,
    )


def _app_templates(spec, count, seed):
    """The first ``count`` launches of an application."""
    cap = _Capture()
    out = []
    if spec == "jacobi":
        # The Figure 1 array program drives its executor directly.
        jacobi_task_stream(cap, RegionForest(), iterations=count // 3 + 1)
        out = [_template(0, task, seed) for task in cap.tasks]
    else:
        name, _, graph = spec.partition(":")
        config = AppConfig(mode="untraced", gpus=4, task_scale=0.1,
                           keep_task_log=False)
        if graph:
            app = get_app(name)(
                config, graph=PHASE_GRAPHS[graph].with_seed(seed)
            )
        else:
            app = get_app(name)(config)
        app.executor = cap
        if hasattr(app, "ctx"):
            app.ctx.executor = cap  # array-layer apps bound it at setup
        index = 0
        while len(cap.tasks) < count:
            start = len(cap.tasks)
            app.iteration(index)
            out.extend(_template(index, t, seed) for t in cap.tasks[start:])
            index += 1
    if len(out) < count:
        raise ValueError(f"{spec} produced {len(out)} tasks, wanted {count}")
    return out[:count]


def _novel_templates(count, seed):
    """Launches that never repeat: a fresh task name each, over seeded
    random pairs of 64 regions."""
    rng = random.Random(seed)
    forest = RegionForest()
    regions = [forest.create_region((64,)) for _ in range(64)]
    fields = regions[0].fields
    out = []
    for i in range(count):
        src, dst = rng.sample(regions, 2)
        out.append((
            i // 100,
            f"NOVEL_{i}",
            ((src, Privilege.READ_ONLY, fields, None),
             (dst, Privilege.READ_WRITE, fields, None)),
            0.0,
            0.0,
        ))
    return out


def build_templates(workload, seed):
    """One template list per tenant stream."""
    out = []
    for index, spec in enumerate(workload.streams):
        stream_seed = seed * 1000 + index
        if spec == "novel":
            out.append(_novel_templates(workload.tasks_per_stream,
                                        stream_seed))
        else:
            out.append(_app_templates(spec, workload.tasks_per_stream,
                                      stream_seed))
    return out


def stream_digest(templates):
    """Digest of what the streams launch, without touching any ``Task``
    (calling ``signature()`` would pre-warm the objects under test)."""
    digest = hashlib.sha256()
    for stream in templates:
        for iteration, name, reqs, _, _ in stream:
            digest.update(repr((
                iteration, name,
                tuple((region.uid, privilege.value, tuple(sorted(fields)),
                       redop)
                      for region, privilege, fields, redop in reqs),
            )).encode())
        digest.update(b"|")
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Client schedule
# ----------------------------------------------------------------------
def build_schedule(workload, templates):
    """The round's operations, ``(tenant, iteration, task)`` in issue
    order, with fresh ``Task`` objects.

    ``iteration`` is set where the client calls ``set_iteration`` first
    (the tenant's iteration changed, or its session is new); ``task`` is
    :data:`ADMIT` where the tenant goes through ``open_session``.
    """
    cursors = [0] * len(templates)
    last_iteration = [None] * len(templates)
    schedule = []
    live = list(range(len(templates)))
    while live:
        for tenant in list(live):
            stream = templates[tenant]
            start = cursors[tenant]
            stop = min(start + workload.burst, len(stream))
            if workload.readmit:
                schedule.append((tenant, None, ADMIT))
                last_iteration[tenant] = None
            for iteration, name, reqs, exec_cost, comm_cost in \
                    stream[start:stop]:
                task = Task(
                    name,
                    [RegionRequirement(*req) for req in reqs],
                    exec_cost=exec_cost,
                    comm_cost=comm_cost,
                )
                if iteration == last_iteration[tenant]:
                    schedule.append((tenant, None, task))
                else:
                    schedule.append((tenant, iteration, task))
                    last_iteration[tenant] = iteration
            cursors[tenant] = stop
            if stop == len(stream):
                live.remove(tenant)
    return schedule


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
def _evicted(session):
    """True once the backend has closed the session under the client (a
    standalone processor handle has no ``closed`` mark: never)."""
    return getattr(session.handle, "closed", False)


class Deployment:
    """The backend of one round and the client's view of its sessions."""

    def __init__(self, workload):
        self.workload = workload
        self.config = workload.config()
        self.session_ids = [
            f"{spec}-{i}" for i, spec in enumerate(workload.streams)
        ]
        self.backend = api.TRACING_BACKENDS[workload.backend](self.config)
        self.sessions = [None] * len(self.session_ids)
        if not workload.readmit:
            for tenant in range(len(self.sessions)):
                self.admit(tenant)

    def admit(self, tenant):
        """Open the tenant's session unless it is still being served."""
        session = self.sessions[tenant]
        if session is None or _evicted(session):
            self.sessions[tenant] = api.open_session(
                self.session_ids[tenant], backend=self.backend
            )

    def flush(self):
        for session in self.sessions:
            if session is not None and not _evicted(session):
                session.flush()

    def tasks_traced(self):
        """Tasks issued inside a trace so far, over all tenants (an
        evicted tenant's counters stay readable on its old handle)."""
        return sum(
            session.handle.stats.tasks_traced
            for session in self.sessions if session is not None
        )

    def close(self):
        for session in self.sessions:
            if session is not None:
                session.close()
