"""Two deployments of one tenant population, driven identically.

K pre-captured application streams (see
:func:`repro.apps.capture_stream`) are served two ways, with identical
task-by-task round-robin arrival order and identical client code --
:class:`repro.api.Session` facades either way:

* :func:`run_isolated` -- K independent processors on a
  :class:`~repro.api.StandaloneBackend` pool, one per tenant, all live
  at once (the paper's "one Apophenia per application" deployment,
  consolidated onto one node);
* :func:`run_service` -- one :class:`~repro.service.ApopheniaService`
  sharing a single mining executor and cross-session memo across all
  tenants.

Each returns a :class:`TenantOutcome` per tenant: the service may change
throughput, never decisions, so the service and chaos suites
(``tests/test_service.py``, ``tests/test_faults.py``) compare the two
outcome sets byte for byte. Nothing here reads a clock: what the service
path *costs* is measured by the ``service_8x`` workload of ``bench/``.
"""

from collections import deque

from repro.api import StandaloneBackend, open_session
from repro.service import ApopheniaService


def _interleaved(streams):
    """Round-robin ``(session_id, iteration, task)`` across all streams."""
    active = deque((sid, iter(stream)) for sid, stream in streams.items())
    while active:
        sid, stream = active.popleft()
        try:
            iteration, task = next(stream)
        except StopIteration:
            continue
        yield sid, iteration, task
        active.append((sid, stream))


class TenantOutcome:
    """Decision summary of one tenant's run (either deployment)."""

    __slots__ = ("session_id", "stats", "decision_trace", "tasks", "memo_hits")

    def __init__(self, session_id, stats, decision_trace, tasks, memo_hits):
        self.session_id = session_id
        self.stats = stats  # SessionStats.replayer_counters()
        self.decision_trace = decision_trace
        self.tasks = tasks
        self.memo_hits = memo_hits


def _drive(sessions, streams):
    """Submit every stream's tasks, round-robin, to its session."""
    for sid, iteration, task in _interleaved(streams):
        session = sessions[sid]
        session.set_iteration(iteration)
        session.submit(task)


def _outcomes(sessions, streams):
    """One :class:`TenantOutcome` per session, off the uniform
    :meth:`Session.stats` surface."""
    out = {}
    for sid, session in sessions.items():
        stats = session.stats()
        out[sid] = TenantOutcome(
            sid,
            stats.replayer_counters(),
            session.decision_trace(),
            len(streams[sid]),
            stats.memo_hits,
        )
    return out


def run_isolated(streams, config):
    """K live processors, no sharing, interleaved arrival order.

    Returns ``{session_id: TenantOutcome}``.
    """
    backend = StandaloneBackend(config)
    sessions = {sid: open_session(sid, backend=backend) for sid in streams}
    _drive(sessions, streams)
    for session in sessions.values():
        session.flush()
    return _outcomes(sessions, streams)


def run_service(streams, config):
    """One service, same interleaved arrival order.

    Returns ``(outcomes, service)``.
    """
    service = ApopheniaService(
        config.with_overrides(max_sessions=max(1, len(streams)))
    )
    sessions = {sid: open_session(sid, backend=service) for sid in streams}
    _drive(sessions, streams)
    service.flush_all()
    return _outcomes(sessions, streams), service
