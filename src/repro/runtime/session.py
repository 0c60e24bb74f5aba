"""The per-session runtime spec of the session pools.

Every session of a :class:`~repro.service.service.SessionPool` -- and
every node replica of a replicated one -- needs its own
:class:`~repro.runtime.runtime.Runtime`: region forests, pipeline clocks,
tracing-engine namespaces, and iteration counters must stay isolated
between tenants, exactly as two applications on one machine own separate
Legion runtime instances. What *is* shared is the machine description and
the calibrated cost model -- the service is one deployment on one machine.

:func:`session_runtime` is that one spec. A runtime it built belongs to
the processor it was handed to and is reachable only through the
session's handle, so there is nothing to give back when the session goes.
"""

from repro.runtime.runtime import Runtime


def session_runtime():
    """A fresh :class:`~repro.runtime.runtime.Runtime` of the one spec
    every pool builds from: the default machine and cost model, ``fast``
    analysis, ``fallback`` mismatch policy, no task log. A session's
    decisions read none of the last three, and a per-task log would grow
    for the session's whole life. ``fallback`` is there for hash
    collisions: a token is 64 bits of a task's signature, so two
    distinct signatures can share one, and then a replayed trace meets a
    task its template does not hold. The runtime checks every replayed
    task's full signature, counts the mismatch and analyses the rest in
    full instead of failing the session. A caller that wants
    :meth:`~repro.runtime.runtime.Runtime.traced_fraction` opens its
    session with its own runtime (``runtime=``, or ``runtimes=`` on the
    replicated backend)."""
    return Runtime(
        mismatch_policy="fallback", analysis_mode="fast", keep_task_log=False
    )
