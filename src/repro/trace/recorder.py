"""Capture a session's task stream into a trace document.

A :class:`TraceRecorder` observes a :class:`repro.api.Session` at the
facade boundary -- the same surface every backend serves -- and records
exactly what the tracing pipeline saw: iteration marks, task
submissions (full signatures plus the region-tree topology they hang
off), and flush fences. Finalizing stamps the footer with the capture
session's decision digest, turning the file into a self-checking
regression fixture: a re-drive that reproduces the digest made
byte-identical tbegin/tend decisions.

Attachment goes through the session::

    recorder = TraceRecorder(app="stencil")
    with api.open_session("cap", config=cfg, recorder=recorder) as session:
        ...  # drive tasks
    doc = recorder.document()          # finalized by session close
    doc.dump("stencil.jsonl")

or explicitly via ``session.record_to(recorder)`` before the first task
and ``session.stop_recording()`` at any point. A trace re-drives from a
cold session, so a session that has seen a task or was warm-started from
a state refuses a recorder: its capture could not re-drive.

The recorder is passive: it never calls into the backend, adds no
buffering, and records each task *before* the serving path sees it, so
capture cannot perturb the decisions being captured.
"""

from repro.trace.format import (
    FORMAT_NAME,
    TraceDocument,
    TraceFormatV1,
    config_to_dict,
    stream_digest,
)


class TraceRecorder:
    """Accumulates one session's stream; hooks called by the facade.

    Parameters
    ----------
    app:
        Optional application name recorded in the header (corpus
        bookkeeping; not interpreted by re-drive).
    meta:
        Optional JSON-serializable mapping stored in the header.
    """

    def __init__(self, app=None, meta=None):
        self.app = app
        self.meta = dict(meta) if meta else {}
        self.records = []
        self.tasks_recorded = 0
        self.finalized = False
        self._header = None
        self._footer = None
        self._declared = set()  # region/partition uids already emitted

    # ------------------------------------------------------------------
    # Facade hooks (called by repro.api.Session)
    # ------------------------------------------------------------------
    def on_open(self, session):
        """Capture the session identity and decision-relevant config."""
        if self._header is not None:
            raise ValueError("recorder is already attached to a session")
        fields, dropped = config_to_dict(session.processor.config)
        self._header = {
            "record": "header",
            "format": FORMAT_NAME,
            "version": TraceFormatV1.version,
            "session_id": session.session_id,
            "backend": session.backend.backend_kind,
            "app": self.app,
            "config": fields,
            "config_dropped": dropped,
            "meta": self.meta,
        }

    def on_iteration(self, index):
        self._check_recording()
        self.records.append({"record": "iteration", "index": int(index)})

    def on_task(self, task):
        self._check_recording()
        reqs = []
        for requirement in task.requirements:
            self._declare_region(requirement.region)
            uid, privilege, fields, redop = requirement.signature()
            reqs.append([uid, privilege, list(fields), redop])
        self.records.append({
            "record": "task",
            "name": task.name,
            "reqs": reqs,
            "exec_cost": task.exec_cost,
            "comm_cost": task.comm_cost,
        })
        self.tasks_recorded += 1

    def on_flush(self):
        self._check_recording()
        self.records.append({"record": "flush"})

    def on_close(self, snapshot, stats):
        """Stamp the footer from the capture session's final decisions."""
        self._check_recording()
        self.finalized = True
        self._footer = {
            "record": "end",
            "events": len(self.records),
            "tasks": self.tasks_recorded,
            "stream_digest": stream_digest(self.records),
            "decisions_digest": snapshot.stable_digest(),
            "replayer": list(snapshot.replayer),
            "gauges": {
                name: getattr(stats, name)
                for name in TraceFormatV1.FOOTER_GAUGES
            },
        }

    # ------------------------------------------------------------------
    # Topology bookkeeping
    # ------------------------------------------------------------------
    def _declare_region(self, region):
        """Emit region/partition records for ``region``'s path, once.

        Ancestors are declared root-first so a reader can rebuild the
        tree in a single pass: every partition names an already-declared
        parent region, every subregion an already-declared partition.
        """
        if region.uid in self._declared:
            return
        path = [region]
        node = region
        while node.parent is not None:
            node = node.parent.parent_region
            if node.uid in self._declared:
                break
            path.append(node)
        for node in reversed(path):
            partition = node.parent
            if partition is not None and partition.uid not in self._declared:
                self._declared.add(partition.uid)
                self.records.append({
                    "record": "partition",
                    "uid": partition.uid,
                    "region": partition.parent_region.uid,
                    "kind": partition.kind,
                    "name": partition.name,
                })
            self._declared.add(node.uid)
            self.records.append({
                "record": "region",
                "uid": node.uid,
                "extent": list(node.extent),
                "fields": sorted(node.fields),
                "name": node.name,
                "partition": partition.uid if partition is not None else None,
                "color": node.color,
            })

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def document(self):
        """The finalized :class:`TraceDocument`."""
        if not self.finalized:
            raise ValueError(
                "recorder not finalized: close the session (or call "
                "session.stop_recording()) before exporting"
            )
        return TraceDocument(self._header, self.records, self._footer)

    def _check_recording(self):
        if self._header is None:
            raise ValueError("recorder is not attached to a session")
        if self.finalized:
            raise ValueError("recorder is finalized; open a new one")

    def __repr__(self):
        state = "finalized" if self.finalized else (
            "recording" if self._header is not None else "detached"
        )
        return f"TraceRecorder(app={self.app!r}, tasks={self.tasks_recorded}, {state})"
