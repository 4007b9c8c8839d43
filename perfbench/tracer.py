"""In-memory spans around the benchmark's calls into each layer.

A span has a name ``<layer>.<call>``, a start, an end, the index of the span
that encloses it and the id of the operation it belongs to. Spans are kept
in a list and written out once the run ends. A layer's self time is the
time its spans cover minus the time covered by spans nested directly inside
them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from statistics import median
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "op")

    def __init__(self, tracer, name, op):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        op = self.op if self.op is not None else (
            t.spans[parent][4] if parent >= 0 else -1)
        t._stack.append(len(t.spans))
        t.spans.append([self.name, perf_counter(), None, parent, op])
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[t._stack.pop()][2] = perf_counter()
        return False


class Tracer:
    """Span recorder plus per-operation counters."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, op id]
        self._stack: list = []
        self.counts = defaultdict(list)

    def span(self, name: str, op=None) -> _Span:
        """Context manager; ``op`` defaults to the enclosing span's op id."""
        return _Span(self, name, op)

    def count(self, name: str, value):
        self.counts[name].append(value)

    def durations(self, name: str) -> list:
        """Seconds of every span with this name, one entry per call."""
        return [end - start for sname, start, end, _, _ in self.spans
                if sname == name]

    def median_ms(self, name: str) -> float:
        d = self.durations(name)
        return 1000.0 * median(d) if d else 0.0

    def mean_count(self, name: str) -> float:
        v = self.counts.get(name)
        return float(sum(v) / len(v)) if v else 0.0

    def self_ms(self, layers, n_ops: int) -> dict:
        """Self time per layer in ms per operation, over the spans of
        operations (those whose op id a ``bench.*`` root span carries)."""
        ops = {op for name, _, _, parent, op in self.spans
               if parent < 0 and name.startswith("bench.")}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in layers}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if layer in out and op in ops:
                out[layer] += end - start - child_time[i]
        return {k: 1000.0 * v / max(1, n_ops) for k, v in out.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans,
                "counts": self.counts,
            }, fh)
