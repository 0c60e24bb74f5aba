"""The checked-in re-drive corpus under ``tests/corpus/``.

Each corpus entry captures one application's stream on a standalone
session under :data:`CORPUS_CONFIG` and exports the trace. The builders
are deterministic end to end -- app region uids restart per forest, the
generative graphs carry fixed seeds, serialization is canonical -- so
``make corpus`` regenerates byte-identical files when nothing changed,
and a diff *is* the review (the same workflow as ``make loc-budget``).

Entries are a :class:`~repro.registry.Registry` (name -> builder), so
the trace suite, the CLI, and the experiments runner iterate one list.
"""

from repro.api.session import open_session
from repro.core.processor import ApopheniaConfig
from repro.registry import Registry
from repro.trace.recorder import TraceRecorder

#: Corpus sizing: the test-suite config (small buffer, fast jobs) so
#: fixtures stay small while the full multi-scale schedule still fires.
CORPUS_CONFIG = ApopheniaConfig(
    min_trace_length=3,
    batchsize=200,
    multi_scale_factor=25,
    job_base_latency_ops=10,
    initial_ingest_margin_ops=20,
)

#: Tasks captured per fixture: enough for several discovery/replay
#: cycles at CORPUS_CONFIG scale, small enough to keep files reviewable.
CORPUS_TASKS = 360


def record_stream(stream, app=None, config=CORPUS_CONFIG, session_id=None):
    """Drive ``[(iteration, task)]`` through a recorded standalone session.

    Returns the finalized :class:`~repro.trace.format.TraceDocument`.
    Iteration marks are recorded on change, exactly as an application
    run loop issues them.
    """
    recorder = TraceRecorder(app=app)
    sid = session_id or (f"corpus:{app}" if app else "corpus")
    with open_session(sid, config=config, recorder=recorder) as session:
        current = None
        for iteration, task in stream:
            if iteration != current:
                session.set_iteration(iteration)
                current = iteration
            session.submit(task)
    return recorder.document()


def app_stream(app_name, num_tasks=CORPUS_TASKS):
    """A registered app's first ``num_tasks``, as ``[(iteration, task)]``."""
    from repro.apps.base import capture_stream

    return capture_stream(app_name, num_tasks, task_scale=0.05)


def generative_stream(graph, num_tasks=CORPUS_TASKS):
    """A phase-graph stream, as ``[(iteration, task)]``."""
    from repro.apps.base import AppConfig, capture_app_stream
    from repro.apps.generative import Generative

    app = Generative(
        AppConfig(mode="untraced", task_scale=0.5, keep_task_log=False),
        graph=graph,
    )
    return capture_app_stream(app, num_tasks)


def _app_entry(name):
    return lambda: record_stream(app_stream(name), app=name)


def _generative_entry(graph_name):
    return lambda: record_stream(
        generative_stream(graph_name),
        app="generative",
        session_id=f"corpus:generative:{graph_name}",
    )


#: Corpus fixture name -> builder returning a TraceDocument.
CORPUS_ENTRIES = Registry("corpus entry", {
    "s3d": _app_entry("s3d"),
    "stencil": _app_entry("stencil"),
    "jacobi": _app_entry("jacobi"),
    "cfd": _app_entry("cfd"),
    "generative-steady": _generative_entry("steady"),
    "generative-adversarial": _generative_entry("adversarial"),
})


def corpus_path(directory, name):
    import os

    return os.path.join(directory, f"{name}.jsonl")


def build_corpus(directory, names=None):
    """(Re)generate corpus fixtures into ``directory``.

    Returns ``[(name, path)]`` for the files written. Pass ``names`` to
    regenerate a subset.
    """
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for name in names if names is not None else CORPUS_ENTRIES.names():
        document = CORPUS_ENTRIES[name]()
        path = corpus_path(directory, name)
        document.dump(path)
        written.append((name, path))
    return written
