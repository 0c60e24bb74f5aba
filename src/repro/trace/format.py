"""The versioned JSON-lines trace format (schema v1).

A trace file is one JSON object per line:

* line 1 -- the **header**: format name, schema version, the identity of
  the captured session, and the decision-relevant slice of its
  :class:`~repro.core.processor.ApopheniaConfig` (so a re-drive can
  reproduce the exact mining/serving schedule);
* **topology** records (``region`` / ``partition``) interleaved before
  first use: enough of the region tree -- uids, fields, partition kinds,
  colors -- to rebuild shadow regions whose signatures hash to the exact
  tokens of the original run (token identity embeds ``region.uid``, see
  :meth:`repro.runtime.task.RegionRequirement.signature`);
* **event** records in stream order: ``iteration`` marks, ``task``
  submissions (full signature plus cost-model inputs), and ``flush``
  fences;
* the last line -- the **footer**: event/task counts, a
  :func:`~repro.stablehash.stable_digest` over the canonical event
  stream (file integrity, checkable in any process), and the digest of
  the capture session's :class:`~repro.api.SessionSnapshot` decisions
  (the byte-identity target a re-drive must hit).

:class:`TraceFormatV1` is the one schema; a header of any other
``version`` is refused. It is written in :func:`repro.canon.check`'s
grammar, the session state's too, down to the items of every list:
requirement rows, their privileges and fields, topology field lists
and partition kinds. The topology is outside the stream digest, so a
record the re-drive could not read is refused at load, not met as a
``TypeError`` in the middle of one.
"""

from repro import canon
from repro.core.processor import ApopheniaConfig, check_recorded
from repro.runtime.privilege import Privilege
from repro.runtime.region import PartitionKind
from repro.stablehash import stable_digest

FORMAT_NAME = "repro-trace"

_INT, _OPT_STR, _NUMBER = (int,), (str, type(None)), (int, float)


class TraceFormatError(ValueError):
    """A trace document violated the schema (or its integrity stamp)."""


def config_to_dict(config):
    """``(serializable_fields, dropped_names)`` for a config object.

    The header records *every* ``ApopheniaConfig`` field, so a re-drive
    runs under exactly the captured knobs. Only JSON-scalar (or ``None``)
    values can be recorded: ``fault_plan`` spec *strings* survive (they
    are how chaos runs are recorded everywhere else); a resolved plan
    object does not -- its name is listed under ``config_dropped`` so
    the reader knows the recorded config is partial, rather than
    silently lost.
    """
    fields, dropped = {}, []
    for name in ApopheniaConfig.field_names():
        value = getattr(config, name)
        if value is None or isinstance(value, canon.SCALAR):
            fields[name] = value
        else:
            dropped.append(name)
    return fields, dropped


def config_from_dict(fields):
    """Rebuild an :class:`~repro.core.processor.ApopheniaConfig`. A
    retired knob recorded at the value this tree honours is dropped; one
    recorded at another value, or a key naming no knob, raises
    ``ValueError`` (:func:`~repro.core.processor.check_recorded`)."""
    check_recorded(fields, ValueError)
    names = ApopheniaConfig.field_names()
    return ApopheniaConfig(
        **{k: v for k, v in fields.items() if k in names}
    )


class TraceFormatV1:
    """Schema v1: validation and canonical event keys."""

    version = 1

    #: record kind -> ``{field: spec}``, and the requirement row, in
    #: :func:`repro.canon.check`'s grammar: what the loader, the shadow
    #: forest and the task synthesis read, down to the items of every
    #: list.
    _SCHEMA = {
        "header": {
            "format": (str,), "version": _INT, "session_id": _OPT_STR,
            "backend": _OPT_STR, "app": _OPT_STR, "config": (dict,),
            "config_dropped": [(str,)], "meta": (dict,),
        },
        "region": {
            "uid": _INT, "extent": [canon.SCALAR], "fields": [(str,)],
            "name": (str,), "partition": (int, type(None)),
            "color": (int, str, type(None)),
        },
        "partition": {
            "uid": _INT, "region": _INT, "name": (str,),
            "kind": frozenset((PartitionKind.DISJOINT,
                               PartitionKind.ALIASED)),
        },
        "task": {
            "name": (str,), "reqs": ["requirement"],
            "exec_cost": _NUMBER, "comm_cost": _NUMBER,
        },
        # [region_uid, privilege, [fields...], redop]
        "requirement": [
            _INT, frozenset(p.value for p in Privilege), [(str,)], _OPT_STR,
        ],
        "iteration": {"index": _INT},
        "flush": {},
        "end": {
            "events": _INT, "tasks": _INT, "stream_digest": (str,),
            "decisions_digest": (str,), "replayer": [_INT], "gauges": (dict,),
        },
    }

    #: What the footer's ``gauges`` record beside the decision digest:
    #: ``SessionStats`` attributes, frozen by the corpus fixtures' bytes.
    FOOTER_GAUGES = ("tasks_seen", "tasks_traced", "replay_fraction",
                     "traces_fired", "candidates_ingested")

    @classmethod
    def validate(cls, record):
        """Check one parsed record against the schema; returns it."""
        if not isinstance(record, dict):
            raise TraceFormatError(f"trace line is not an object: {record!r}")
        kind = record.get("record")
        spec = cls._SCHEMA.get(kind) if isinstance(kind, str) else None
        if not isinstance(spec, dict):  # ``requirement`` is a row
            raise TraceFormatError(f"unknown record kind {kind!r}")
        canon.check(record, kind, cls._SCHEMA, TraceFormatError)
        if kind == "header":
            if record["format"] != FORMAT_NAME:
                raise TraceFormatError(
                    f"not a {FORMAT_NAME} file: format={record['format']!r}"
                )
            if record["version"] != cls.version:
                raise TraceFormatError(
                    f"schema v{cls.version} reader cannot load "
                    f"version {record['version']!r}"
                )
        return record

    @staticmethod
    def event_key(record):
        """The canonical tuple one event contributes to the stream digest.

        Topology records are derived bookkeeping (they repeat what the
        task signatures pin down), so only genuine stream events --
        iteration marks, task submissions, flush fences -- are keyed.
        """
        kind = record["record"]
        if kind == "task":
            return (
                "task",
                record["name"],
                tuple(
                    (uid, privilege, tuple(fields), redop)
                    for uid, privilege, fields, redop in record["reqs"]
                ),
            )
        if kind == "iteration":
            return ("iteration", record["index"])
        if kind == "flush":
            return ("flush",)
        return None


def stream_digest(records):
    """Process-stable digest of the canonical event stream."""
    keys = []
    for record in records:
        key = TraceFormatV1.event_key(record)
        if key is not None:
            keys.append(key)
    return stable_digest(tuple(keys))


class TraceDocument:
    """A parsed (or under-construction) trace: header, records, footer.

    ``records`` holds topology and event records in capture order;
    ``header``/``footer`` are the first/last lines. Serialization is
    canonical (:func:`repro.canon.dumps` per line), so an unchanged capture
    re-serializes byte-identically -- the property ``make corpus``'s
    diff-review workflow rests on.
    """

    __slots__ = ("header", "records", "footer")

    def __init__(self, header, records, footer):
        self.header = header
        self.records = records
        self.footer = footer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def app(self):
        return self.header.get("app")

    @property
    def session_id(self):
        return self.header.get("session_id")

    @property
    def num_tasks(self):
        return self.footer["tasks"]

    def config(self):
        """The recorded :class:`ApopheniaConfig` (dropped fields default),
        validated: the header is outside the stream digest, so a value of
        the wrong type or out of range raises :class:`TraceFormatError`
        here rather than deep inside a re-drive."""
        try:
            return config_from_dict(self.header["config"]).validate()
        except ValueError as exc:
            raise TraceFormatError(f"header config: {exc}") from None

    def events(self):
        """Iterate the stream events (iteration/task/flush) in order."""
        for record in self.records:
            if record["record"] in ("iteration", "task", "flush"):
                yield record

    def topology(self):
        """Iterate the region/partition declarations in order."""
        for record in self.records:
            if record["record"] in ("region", "partition"):
                yield record

    def stream_digest(self):
        """Recompute the event-stream digest from the records."""
        return stream_digest(self.records)

    def verify(self):
        """Check the footer's integrity stamp; returns ``self``.

        Raises :class:`TraceFormatError` when the recorded events no
        longer hash to the footer's ``stream_digest`` -- a corrupted or
        hand-edited corpus file fails here, before any re-drive
        interprets it.
        """
        recorded = self.footer["stream_digest"]
        actual = self.stream_digest()
        if recorded != actual:
            raise TraceFormatError(
                f"stream digest mismatch: footer says {recorded}, "
                f"events hash to {actual}"
            )
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def lines(self):
        yield self.header
        yield from self.records
        yield self.footer

    def dumps(self):
        """The canonical JSON-lines text of this document."""
        return "".join(canon.dumps(line) + "\n" for line in self.lines())

    def dump(self, path):
        """Write the document to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
        return path

    @classmethod
    def loads(cls, text):
        """Parse and schema-check a JSON-lines trace document."""
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) < 2:
            raise TraceFormatError(
                f"trace document needs a header and a footer, "
                f"got {len(lines)} line(s)"
            )
        parsed = [
            canon.loads(line, f"line {lineno}", TraceFormatError)
            for lineno, line in enumerate(lines, start=1)
        ]
        header = parsed[0]
        if not isinstance(header, dict) or header.get("record") != "header":
            raise TraceFormatError("first line must be the header record")
        footer = parsed[-1]
        if not isinstance(footer, dict) or footer.get("record") != "end":
            raise TraceFormatError("last line must be the end record")
        for record in parsed:
            TraceFormatV1.validate(record)
        return cls(header, parsed[1:-1], footer)

    @classmethod
    def load(cls, path):
        """Read, schema-check, and integrity-check a trace file."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return cls.loads(text).verify()

    def __repr__(self):
        return (
            f"TraceDocument(app={self.app!r}, tasks={self.num_tasks}, "
            f"digest={self.footer['decisions_digest']})"
        )
