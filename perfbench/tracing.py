"""In-memory spans recorded around calls into entropart's layers.

A span has a name, a start and an end (``time.monotonic`` seconds, which is
CLOCK_MONOTONIC on Linux and so comparable across processes), the id of the
span that was open when it started, and the label of the op it belongs to.
Spans stay in memory until the run ends and writes them out.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "op": op if op is not None or parent is None else parent["op"],
            "start": time.monotonic(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded by a child process under the span open now."""
        parent = self._open[-1] if self._open else None
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=base + rec["id"], op=None if parent is None else parent["op"])
            if rec["parent"] is None:
                rec["parent"] = None if parent is None else parent["id"]
            else:
                rec["parent"] += base
            self.spans.append(rec)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, dict]:
        """Per span name: call count, total time and total self time."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[s["id"]]
        return table


class NullTracer:
    """Tracer stand-in for untraced code paths: calls pass straight through."""

    def span(self, name: str, op: str | None = None):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
