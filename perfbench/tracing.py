"""Spans and counters recorded by the benchmark around its calls into the library.

A span is (name, start, end, parent index, pass id). Span names are
"<layer>.<operation>", where the layer is the coverembed module called. Spans
stay in memory until the run ends. The plain (untraced) mode uses NullTracer,
whose span is a shared no-op context manager, so timed passes carry no
bookkeeping beyond one method call per library call.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

ROOT = "bench.pass"  # the span around one whole pass

_NOOP = contextlib.nullcontext()


class NullTracer:
    enabled = False

    def span(self, name):
        return _NOOP

    def count(self, key, value=1.0):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pass_id]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.pass_id]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key, value=1.0):
        self.counts[self.pass_id][key] += value

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def self_times(self, pass_id: int) -> dict[str, float]:
        """Self time per span name within one pass: duration minus child spans."""
        own: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for idx, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                own[name] += (end - start) - child_time[idx]
        return dict(own)

    def total_times(self, pass_id: int) -> dict[str, float]:
        """Summed span durations per name within one pass, children included."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, pid in self.spans:
            if pid == pass_id:
                out[name] += end - start
        return dict(out)

    def span_counts(self, pass_id: int) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, _, _, _, pid in self.spans:
            if pid == pass_id:
                out[name] += 1
        return dict(out)

    def dump(self, path):
        """Write every span, times relative to the first one, as JSON lines."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "pass": pid,
                        }
                    )
                    + "\n"
                )


class TracedProblem:
    """Proxy around an embedding problem: every method call becomes a loss span.

    Attribute reads (n, m, targets, ...) pass straight through, so the
    optimizer sees the same problem; only method calls are wrapped, under the
    span name "loss.<method>". Each call also counts the n(n-1)/2 point pairs
    it evaluates, under "loss.pairs".
    """

    def __init__(self, problem, tracer: Tracer):
        self._problem = problem
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._problem, name)
        if not callable(attr) or name.startswith("__"):
            return attr
        span_name = f"loss.{name}"
        tracer = self._tracer
        n = self._problem.n
        pairs = n * (n - 1) / 2

        def traced(*args, **kwargs):
            tracer.count("loss.pairs", pairs)
            with tracer.span(span_name):
                return attr(*args, **kwargs)

        return traced
