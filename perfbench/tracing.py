"""Spans and counts recorded around the benchmark's own calls into qitest.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, ``op`` the operation it belongs to. Counts are recorded
at the same call sites as (name, value, op). Both stay in memory until the
run ends and are then written as one JSON file.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


def plain_call(name, fn, *args, **kwargs):
    """The untraced form of ``Tracer.call``: the call and nothing else."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value) -> None:
        self.counts.append((name, value, self.op))

    def per_op_ms(self) -> dict[str, dict[int, float]]:
        """{span name: {op: summed duration in ms}} over every recorded span."""
        out: dict[str, dict[int, float]] = {}
        for name, start, end, _parent, op in self.spans:
            by_op = out.setdefault(name, {})
            by_op[op] = by_op.get(op, 0.0) + (end - start) * 1e3
        return out

    def per_op_counts(self) -> dict[str, dict[int, float]]:
        out: dict[str, dict[int, float]] = {}
        for name, value, op in self.counts:
            by_op = out.setdefault(name, {})
            by_op[op] = by_op.get(op, 0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"span_fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans,
                       "count_fields": ["name", "value", "op"],
                       "counts": self.counts}, fh)


def median_over_ops(by_op: dict[int, float] | None) -> float:
    """Median of a per-op series; 0.0 when the workload never makes the call."""
    return float(statistics.median(by_op.values())) if by_op else 0.0
