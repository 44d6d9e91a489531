"""In-memory spans recorded around the benchmark's calls into each layer."""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


def no_span(name):
    """The span of an untraced run: records nothing."""
    return nullcontext()


class Tracer:
    """Spans with name, start, end, parent and run id; written out by the caller."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.monotonic(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()


def self_times(spans: list[dict]) -> dict:
    """Per span name, the summed duration minus the time covered by child spans."""
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
