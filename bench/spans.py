"""Stack-based span accumulator for the traced pass.

A span is one call into a layer: name, start, end, and the span that
caused it (the one open when it began). Per name the recorder keeps
calls, total time and *self* time -- duration minus the part covered by
child spans -- so the self times of all names add up to the time spent
inside root spans. Full spans are kept only while ``sampling`` is on
(the harness turns it on for every 100th request) and are written out
when the benchmark ends.

Spans must nest: ending a span that is not the innermost open one, or
one that would end before it started, raises :class:`SpanError` instead
of recording a negative duration.
"""

import json
import time


class SpanError(RuntimeError):
    """A span ended out of order or before it started."""


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals = {}  # name -> [calls, total_seconds, self_seconds]
        self.sampled = []  # (request, id, parent id, name, start, end)
        self.sampling = False
        self.request = None
        self._stack = []  # [name, start, child_seconds, id] per open span
        self._begun = 0

    def begin(self, name):
        self._begun += 1
        # The frame goes on the stack before its start is stamped: if
        # allocating it makes a collection due, a recorder fed from
        # ``gc.callbacks`` sees that pause as a sibling of this span,
        # not as time inside it that the parent is also charged for.
        frame = [name, 0.0, 0.0, self._begun]
        self._stack.append(frame)
        frame[1] = self.clock()

    def end(self, name):
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1][0] != name:
            open_name = stack[-1][0] if stack else None
            raise SpanError(
                f"span {name!r} ended while {open_name!r} was innermost"
            )
        _, start, child, span_id = stack.pop()
        duration = end - start
        if duration < 0.0:
            raise SpanError(f"span {name!r} ends before it starts")
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if stack:
            stack[-1][2] += duration
        if self.sampling:
            parent = stack[-1][3] if stack else None
            self.sampled.append(
                (self.request, span_id, parent, name, start, end)
            )

    def wrap(self, obj, attr, name, after=None):
        """Replace ``obj.attr`` with a span-recording wrapper.

        The wrapper is an instance (or module) attribute, so only this
        object is traced; the class, and every other instance, is
        untouched. ``after(args, result)`` runs once the span has ended,
        for counts taken at the same boundary. Wrapping twice is a no-op.
        """
        inner = getattr(obj, attr)
        if getattr(inner, "_span_name", None) is not None:
            return
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                end(name)
            if after is not None:
                after(args, result)
            return result

        traced._span_name = name
        traced._span_inner = inner
        setattr(obj, attr, traced)

    @staticmethod
    def unwrap(obj, attr):
        """Put back what :meth:`wrap` replaced (for module attributes,
        which outlive the traced pass)."""
        inner = getattr(getattr(obj, attr), "_span_inner", None)
        if inner is not None:
            setattr(obj, attr, inner)

    @property
    def open_spans(self):
        return len(self._stack)

    def write_jsonl(self, path):
        """One JSON object per sampled span, in end order."""
        with open(path, "w") as out:
            for request, span_id, parent, name, start, end in self.sampled:
                out.write(json.dumps({
                    "request": request,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                }) + "\n")
