"""In-memory spans recorded around calls into the package's layers.

A span is (name, op id, parent index, start, end).  Spans of one operation
share its op id; the parent is the span that caused it, or -1 for a root.
Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._clock = time.perf_counter

    def begin(self, name: str, op: int, parent: int = -1) -> int:
        self.spans.append([name, op, parent, self._clock(), 0.0])
        return len(self.spans) - 1

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[4] = self._clock()
        return span[4] - span[3]

    def add(self, name: str, op: int, start: float, end: float, parent: int = -1) -> int:
        """Record a span timed elsewhere, such as in a child process."""
        self.spans.append([name, op, parent, start, end])
        return len(self.spans) - 1

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_time = defaultdict(float)
        for name, _op, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, _op, _parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[idx]
        return out
