"""The per-session runtime spec of the session pools.

Every session of a :class:`~repro.service.service.SessionPool` -- and
every node replica of a replicated one -- needs its own
:class:`~repro.runtime.runtime.Runtime`: region forests, pipeline clocks,
tracing-engine namespaces, and iteration counters must stay isolated
between tenants, exactly as two applications on one machine own separate
Legion runtime instances. What *is* shared is the machine description and
the calibrated cost model -- the service is one deployment on one machine.

:class:`RuntimeSessionFactory` pins that shared spec once and stamps out
identically configured runtimes on demand. It is a spec, not a registry:
a runtime it created belongs to the processor it was handed to and is
reachable only through the session's handle, so there is nothing to give
back when the session goes.
"""

from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.machine import PERLMUTTER
from repro.runtime.runtime import Runtime


class RuntimeSessionFactory:
    """Builds identically configured per-session runtimes.

    Parameters mirror :class:`~repro.runtime.runtime.Runtime`. The
    defaults are the one spec every pool builds from -- ``fast``
    analysis, ``fallback`` mismatch policy, no task log: a session's
    decisions read none of the three, and a per-task log would grow for
    the session's whole life. A caller that wants
    :meth:`~repro.runtime.runtime.Runtime.traced_fraction` passes
    ``keep_task_log=True`` (or its own runtime).
    """

    def __init__(
        self,
        cost_model=DEFAULT_COST_MODEL,
        machine=PERLMUTTER,
        gpus=1,
        analysis_mode="fast",
        mismatch_policy="fallback",
        keep_task_log=False,
    ):
        self.cost_model = cost_model
        self.machine = machine
        self.gpus = gpus
        self.analysis_mode = analysis_mode
        self.mismatch_policy = mismatch_policy
        self.keep_task_log = keep_task_log

    def create(self):
        """A fresh :class:`~repro.runtime.runtime.Runtime` of this spec."""
        return Runtime(
            cost_model=self.cost_model,
            machine=self.machine,
            gpus=self.gpus,
            mismatch_policy=self.mismatch_policy,
            analysis_mode=self.analysis_mode,
            keep_task_log=self.keep_task_log,
        )
