"""In-memory span recorder for the benchmark.

A span marks one call from the benchmark into a public function of a
sphere_mt module: its name is "<module>.<function>", its label the
problem size ("64x128_L16"), and it records start, end and the span
that encloses it.  Spans of one benchmark operation share an operation
id.  Nothing is written until the run ends; a disabled tracer records
nothing and costs one attribute test per call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op_id = -1

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; starts a new operation id."""
        if not self.enabled:
            yield
            return
        self._op_id += 1
        with self.span("op." + kind):
            yield

    @contextlib.contextmanager
    def span(self, name: str, label: str = ""):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "op": self._op_id, "name": name,
               "label": label,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, label: str, seconds: float):
        """Record a span timed elsewhere, e.g. in a set-up subprocess."""
        self._op_id += 1
        self.spans.append({"id": len(self.spans), "op": self._op_id,
                           "name": name, "label": label, "parent": None,
                           "start": 0.0, "end": seconds})

    def self_times(self) -> dict[tuple[str, str], list[float]]:
        """Self time of every span, grouped by (name, label).

        Self time is the span's duration minus the durations of its
        direct children; spans never overlap (one caller, one thread).
        """
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[tuple[str, str], list[float]] = defaultdict(list)
        for s in self.spans:
            out[(s["name"], s["label"])].append(
                s["end"] - s["start"] - child[s["id"]])
        return out

    def count(self, name: str, label: str = "") -> int:
        return sum(1 for s in self.spans
                   if s["name"] == name and s["label"] == label)
