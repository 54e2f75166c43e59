"""Span recording around the library calls an op makes, and per-layer stats.

A span is ``(name, start_ns, end_ns, parent, op_id, error)``: ``parent`` is
the index of the enclosing span (the op span for a library call, -1 for an
op). Spans stay in memory and are written once, when the run ends. With
recording off, ``Tracer.call`` is a plain call, so untraced blocks pay
nothing for it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self._parent = -1
        self._op_id = -1

    def op(self, op_id: int, kind: str, fn, *args):
        """Run one op under an ``op.<kind>`` span."""
        self._op_id = op_id
        return self.call(f"op.{kind}", fn, *args)

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        parent = self._parent
        index = len(self.spans)
        self.spans.append(None)
        self._parent = index
        error = True
        start = perf_counter_ns()
        try:
            result = fn(*args)
            error = False
            return result
        finally:
            end = perf_counter_ns()
            self._parent = parent
            self.spans[index] = (name, start, end, parent, self._op_id, error)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start_ns", "end_ns", "parent", "op_id", "error"]
        path.write_text(json.dumps({**header, "fields": fields, "spans": self.spans}))


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, never overlapping, so their
    durations add up to the covered time.
    """
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def call_stats(spans, names) -> dict[str, dict[str, float]]:
    """calls, busy_ms, p50_us, p90_us and errors per span name; zeros for
    names that never ran (a layer the workload leaves idle)."""
    durations: dict[str, list[int]] = {name: [] for name in names}
    errors = dict.fromkeys(names, 0)
    for name, start, end, _, _, error in spans:
        if name in durations:
            durations[name].append(end - start)
            errors[name] += error
    stats = {}
    for name, values in durations.items():
        if values:
            p90 = statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]
            stats[name] = {
                "calls": len(values),
                "busy_ms": sum(values) / 1e6,
                "p50_us": statistics.median(values) / 1e3,
                "p90_us": p90 / 1e3,
                "errors": errors[name],
            }
        else:
            stats[name] = {"calls": 0, "busy_ms": 0.0, "p50_us": 0.0, "p90_us": 0.0, "errors": 0}
    return stats
