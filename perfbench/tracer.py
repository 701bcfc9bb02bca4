"""Spans and counters recorded around the benchmark's own calls into each layer.

A span is [name, start, end, parent index, operation id]; spans stay in
memory and are written out when the run ends.  The untraced run uses
NullTracer, whose span() is a shared no-op context and which hands
integrands back unwrapped.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    enabled = False
    op_id = None

    def span(self, name):
        return _NULL_SPAN

    def count(self, name, amount=1):
        pass

    def counted(self, name, f):
        return f


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def counted(self, name, f):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    def summary(self):
        """Per span name: calls, busy time (ms) and self time (ms), where
        self time is the span's duration minus what its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["busy_ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - children) * 1e3
        return out
