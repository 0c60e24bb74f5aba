"""Traced pass: spans around each layer's public methods, from outside.

Nothing under ``src/`` knows about tracing. :class:`LayerTracer` puts a
:class:`~spans.SpanRecorder` wrapper on the public methods of the *live*
objects of one deployment (instance attributes, so classes and other
instances are untouched) and on the two ``repro.persist`` functions the
service module calls by name (module attributes, restored by
:meth:`LayerTracer.detach`). A span is named ``<layer>:<method>``; a
layer is a module of ``src/repro``.

The facade ``Session`` and the service / replicated handles use
``__slots__`` and cannot carry instance wrappers: the client loop opens
the ``api:*`` spans itself, and the handles' few lines count as ``api``
self time.

Garbage collections get a span of their own (``gc:collect``, from
``gc.callbacks``). A full collection of a 60k-task heap takes ~0.1 s and
lands on whichever allocation crosses the threshold; left inside the
layers it would move several percent of the loop between them, or out of
all of them, from one run to the next.
"""

import gc

import repro.service.service as service_module
from repro.service.executor import SessionLane

from spans import SpanRecorder

#: Every per-layer metric the traced pass reports, with its unit.
LAYER_METRICS = {
    "api.self_us_per_task": "us",
    "api.ops": "count",
    "core.processor.self_us_per_task": "us",
    "core.hashing.us_per_task": "us",
    "core.hashing.hashes_computed": "count",
    "core.hashing.cache_hit_rate": "share",
    "core.finder.self_us_per_task": "us",
    "core.finder.jobs_submitted": "count",
    "core.finder.tokens_submitted": "count",
    "core.jobs.us_per_task": "us",
    "core.jobs.us_per_job": "us",
    "core.jobs.tokens_analyzed": "count",
    "core.jobs.memo_hit_rate": "share",
    "core.jobs.degraded_jobs": "count",
    "core.candidates.ingest_us_per_task": "us",
    "core.candidates.ingested": "count",
    "core.candidates.live": "count",
    "core.candidates.evicted": "count",
    "core.matching.advance_us_per_task": "us",
    "core.matching.advance_calls_per_task": "1/task",
    "core.matching.active_pointer_peak": "count",
    "core.matching.pointer_collapses": "count",
    "core.scoring.select_us_per_task": "us",
    "core.scoring.worth_waiting_us_per_task": "us",
    "core.scoring.worth_waiting_calls_per_task": "1/task",
    "core.scoring.hysteresis_suppressed": "count",
    "core.replayer.self_us_per_task": "us",
    "core.replayer.deferrals": "count",
    "core.replayer.traces_fired": "count",
    "core.replayer.mean_trace_length": "tasks",
    "core.replayer.reprocessed_per_task": "1/task",
    "runtime.us_per_task": "us",
    "runtime.calls_per_task": "1/task",
    "service.self_us_per_task": "us",
    "service.pump_us_per_task": "us",
    "service.sessions_evicted": "count",
    "service.warm_starts": "count",
    "service.admit_us_per_call": "us",
    "core.coordination.us_per_task": "us",
    "core.coordination.waits": "count",
    "core.coordination.ingest_margin_ops": "count",
    "core.coordination.agreement_table_peak": "count",
    "persist.dehydrate_us_per_call": "us",
    "persist.hydrate_us_per_call": "us",
    "persist.calls": "count",
    "persist.state_bytes_mean": "bytes",
    "persist.us_per_task": "us",
    "gc.us_per_task": "us",
    "gc.collections": "count",
    "trace.overhead_share": "share",
    "trace.selftime_closure": "share",
}

_PROCESSOR_SPANS = (
    # (path from the processor, method, span name)
    ((), "execute_task", "core.processor:execute_task"),
    ((), "set_iteration", "core.processor:set_iteration"),
    ((), "flush", "core.processor:flush"),
    (("hasher",), "hash_task", "core.hashing:hash_task"),
    (("finder",), "observe", "core.finder:observe"),
    (("finder",), "drain_completed", "core.finder:drain_completed"),
    (("replayer",), "ingest", "core.candidates:ingest"),
    (("replayer",), "process", "core.replayer:process"),
    (("replayer",), "flush_all", "core.replayer:flush_all"),
    (("replayer", "engine"), "advance", "core.matching:advance"),
    (("replayer", "policy"), "select", "core.scoring:select"),
    (("replayer", "policy"), "worth_waiting", "core.scoring:worth_waiting"),
    (("runtime",), "charge_launch", "runtime:charge_launch"),
    (("runtime",), "execute_task", "runtime:execute_task"),
    (("runtime",), "begin_trace", "runtime:begin_trace"),
    (("runtime",), "end_trace", "runtime:end_trace"),
    (("runtime",), "set_iteration", "runtime:set_iteration"),
)


class LayerTracer:
    def __init__(self):
        self.rec = SpanRecorder()
        self.processors = []  # every processor traced, evicted ones too
        self.tokens_mined = 0
        self.agreement_table_peak = 0
        self.states = []  # every SessionState dehydrated in the pass
        self._patched = False

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def attach(self, deployment):
        """Trace every live object of ``deployment``, and every session a
        service admits from here on."""
        gc.callbacks.append(self._on_gc)
        if deployment.workload.backend == "service":
            self._attach_service(deployment.backend)
        for session in deployment.sessions:
            if session is not None:
                self._attach_handle(session.handle)

    def detach(self):
        """Undo the process-wide hooks (instance wrappers die with their
        objects)."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        if self._patched:
            self.rec.unwrap(service_module, "dehydrate")
            self.rec.unwrap(service_module, "hydrate_processor")
            self._patched = False

    def _on_gc(self, phase, info):
        if phase == "start":
            self.rec.begin("gc:collect")
        else:
            self.rec.end("gc:collect")

    def _attach_service(self, service):
        wrap = self.rec.wrap
        wrap(service, "execute_task", "service:execute_task")
        wrap(service, "set_iteration", "service:set_iteration")
        wrap(service, "flush", "service:flush")
        wrap(service, "close_session", "service:close_session")
        wrap(service, "open_session", "service:open_session",
             after=lambda args, handle: self._attach_handle(handle))
        wrap(service.executor, "pump", "service:pump")
        self._attach_mining(service.executor)
        if service.state_store is not None:
            wrap(service.state_store, "put", "persist:store_put")
            wrap(service.state_store, "pop", "persist:store_pop")
        wrap(service_module, "dehydrate", "persist:dehydrate",
             after=lambda args, state: self.states.append(state))
        wrap(service_module, "hydrate_processor", "persist:hydrate")
        self._patched = True

    def _attach_handle(self, handle):
        processors = getattr(handle, "processors", None)
        if processors is None:
            processors = [getattr(handle, "processor", handle)]
        for processor in processors:
            self._attach_processor(processor)
        coordinator = getattr(handle, "coordinator", None)
        if coordinator is not None:
            wrap = self.rec.wrap
            wrap(coordinator, "agree", "core.coordination:agree",
                 after=lambda args, agreed: self._note_table(coordinator))
            wrap(coordinator, "report_wait", "core.coordination:report_wait")
            wrap(coordinator, "retire", "core.coordination:retire")

    def _attach_processor(self, processor):
        self.processors.append(processor)
        for path, method, name in _PROCESSOR_SPANS:
            target = processor
            for attr in path:
                target = getattr(target, attr)
            self.rec.wrap(target, method, name)
        executor = processor.executor
        if isinstance(executor, SessionLane):
            # The lane only queues; the shared executor mines in pump().
            self.rec.wrap(executor, "submit", "service:lane_submit")
        else:
            self.rec.wrap(executor, "submit", "core.jobs:submit")
            self._attach_mining(executor)

    def _attach_mining(self, executor):
        """Span the memo lookup and the repeat-finding algorithm of a
        private or shared executor; counts the tokens really mined."""
        self.rec.wrap(executor, "repeats_algorithm", "core.jobs:mine",
                      after=self._note_mined)
        if executor.memo is not None:
            self.rec.wrap(executor.memo, "mine", "core.jobs:memo")

    def _note_mined(self, args, result):
        self.tokens_mined += len(args[0])

    def _note_table(self, coordinator):
        size = coordinator.agreement_table_size
        if size > self.agreement_table_peak:
            self.agreement_table_peak = size

    # ------------------------------------------------------------------
    # The per-layer table
    # ------------------------------------------------------------------
    def metrics(self, deployment, totals, tasks, scale):
        """Per-layer metrics of one traced round.

        ``totals`` is the recorder's ``totals`` as it stood when the
        client loop ended, ``tasks`` the tasks submitted, ``scale`` the
        factor from measured seconds to calibrated microseconds.
        """
        def calls(name):
            return totals[name][0] if name in totals else 0

        def total_us(name):
            return totals[name][1] * scale if name in totals else 0.0

        def self_us(*prefixes):
            return scale * sum(
                entry[2] for name, entry in totals.items()
                if name.startswith(prefixes)
            )

        def per(value, count):
            return value / count if count else 0.0

        stats = [session.stats() for session in deployment.sessions]
        backend_stats = deployment.backend.backend_stats

        def total(field):
            return sum(getattr(s, field) for s in stats)

        hash_calls = calls("core.hashing:hash_task")
        hashes = sum(p.hasher.hashes_computed for p in self.processors)
        jobs = total("jobs_submitted")
        advances = calls("core.matching:advance")
        # Session.stats() reports the reference replica; every replica
        # advances its own engine once per task it sees.
        seen = sum(s.tasks_seen * s.nodes for s in stats)
        persist_calls = calls("persist:dehydrate") + calls("persist:hydrate")
        sampled_states = self.states[::8]
        return {
            "api.self_us_per_task": per(self_us("api:"), tasks),
            "api.ops": sum(calls(n) for n in totals if n.startswith("api:")),
            "core.processor.self_us_per_task":
                per(self_us("core.processor:"), tasks),
            "core.hashing.us_per_task": per(self_us("core.hashing:"), tasks),
            "core.hashing.hashes_computed": hashes,
            "core.hashing.cache_hit_rate": 1.0 - per(hashes, hash_calls),
            "core.finder.self_us_per_task":
                per(self_us("core.finder:"), tasks),
            "core.finder.jobs_submitted": jobs,
            "core.finder.tokens_submitted": total("tokens_analyzed"),
            "core.jobs.us_per_task": per(self_us("core.jobs:"), tasks),
            "core.jobs.us_per_job": per(self_us("core.jobs:"), jobs),
            "core.jobs.tokens_analyzed": self.tokens_mined,
            "core.jobs.memo_hit_rate": per(total("memo_hits"), jobs),
            "core.jobs.degraded_jobs": total("degraded_jobs"),
            "core.candidates.ingest_us_per_task":
                per(self_us("core.candidates:"), tasks),
            "core.candidates.ingested": total("candidates_ingested"),
            "core.candidates.live": sum(
                len(s.processor.replayer.trie.candidates)
                for s in deployment.sessions
            ),
            "core.candidates.evicted": total("candidates_evicted"),
            "core.matching.advance_us_per_task":
                per(self_us("core.matching:"), tasks),
            "core.matching.advance_calls_per_task": per(advances, tasks),
            "core.matching.active_pointer_peak":
                max(s.active_pointer_peak for s in stats),
            "core.matching.pointer_collapses": total("pointer_collapses"),
            "core.scoring.select_us_per_task":
                per(self_us("core.scoring:select"), tasks),
            "core.scoring.worth_waiting_us_per_task":
                per(self_us("core.scoring:worth_waiting"), tasks),
            "core.scoring.worth_waiting_calls_per_task":
                per(calls("core.scoring:worth_waiting"), tasks),
            "core.scoring.hysteresis_suppressed":
                total("hysteresis_suppressed"),
            "core.replayer.self_us_per_task":
                per(self_us("core.replayer:"), tasks),
            "core.replayer.deferrals": total("deferrals"),
            "core.replayer.traces_fired": total("traces_fired"),
            "core.replayer.mean_trace_length":
                per(total("tasks_traced"), total("traces_fired")),
            "core.replayer.reprocessed_per_task":
                per(advances - seen, tasks),
            "runtime.us_per_task": per(self_us("runtime:"), tasks),
            "runtime.calls_per_task": per(
                sum(calls(n) for n in totals if n.startswith("runtime:")),
                tasks,
            ),
            "service.self_us_per_task": per(self_us("service:"), tasks),
            "service.pump_us_per_task":
                per(self_us("service:pump"), tasks),
            "service.sessions_evicted": backend_stats["sessions_evicted"],
            "service.warm_starts": backend_stats["warm_starts"],
            "service.admit_us_per_call": per(
                total_us("service:open_session"),
                calls("service:open_session"),
            ),
            "core.coordination.us_per_task":
                per(self_us("core.coordination:"), tasks),
            "core.coordination.waits": total("coordinator_waits"),
            "core.coordination.ingest_margin_ops":
                max(s.ingest_margin_ops for s in stats),
            "core.coordination.agreement_table_peak":
                self.agreement_table_peak,
            "persist.dehydrate_us_per_call": per(
                total_us("persist:dehydrate"), calls("persist:dehydrate")
            ),
            "persist.hydrate_us_per_call": per(
                total_us("persist:hydrate"), calls("persist:hydrate")
            ),
            "persist.calls": persist_calls,
            "persist.state_bytes_mean": per(
                sum(len(state.dumps()) for state in sampled_states),
                len(sampled_states),
            ),
            "persist.us_per_task": per(self_us("persist:"), tasks),
            "gc.us_per_task": per(self_us("gc:"), tasks),
            "gc.collections": calls("gc:collect"),
        }
