"""In-memory spans around calls into queryvote's public functions.

A span is ``(name, tag, start, end, parent, op)``: the layer function called
(``module.function``), an optional tag that splits it further (culture kind,
strategy label, cost function and axiom), ``perf_counter`` bounds, the index
of the enclosing span (or None) and the id of the op it belongs to. Spans are
kept in a list and written out once, at the end of a run.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records a span for every call routed through :meth:`call` or :meth:`span`."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    def _open(self, name, tag) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, tag, perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record) -> None:
        record[3] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, tag=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        record = self._open(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    @contextmanager
    def span(self, name: str, tag=None):
        record = self._open(name, tag)
        try:
            yield record
        finally:
            self._close(record)

    def durations(self, name: str, tag=None) -> list[float]:
        """Durations in seconds of the closed spans named ``name`` (and tagged ``tag``)."""
        return [
            s[3] - s[2]
            for s in self.spans
            if s[0] == name and s[3] is not None and (tag is None or s[1] == tag)
        ]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def dump(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            {
                "name": name,
                "tag": tag,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "op": op,
            }
            for name, tag, start, end, parent, op in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"clock": "perf_counter seconds from the first span", "spans": rows}, handle)


class NullTracer:
    """Same interface, records nothing: the untraced path."""

    enabled = False
    op = None

    def call(self, name, fn, *args, tag=None, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, tag=None):
        yield None


NULL = NullTracer()
