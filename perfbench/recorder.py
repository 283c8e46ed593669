"""What one benchmark run records: end-to-end samples, failures and spans.

End-to-end samples are kept in every run, one column per quantity and one
row per operation. Spans, per-layer samples and tracemalloc peaks are
kept only when tracing is on; with tracing off a span still times its
block, so the untraced run measures the same intervals. tracemalloc never
runs inside a span: an allocation peak comes from a second, untimed call.
An operation that records a failure keeps none of its samples, so a wrong
result is counted and never timed.
"""

from __future__ import annotations

import json
import time
from array import array
import tracemalloc
from collections import defaultdict
from pathlib import Path


class Span:
    """A timed block: wall-clock seconds, and the process's CPU seconds."""

    __slots__ = ("name", "op", "parent", "start", "end", "cpu_start", "cpu_end")

    def __init__(self, name: str, op, parent: int) -> None:
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = self.cpu_start = self.cpu_end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def cpu_seconds(self) -> float:
        return self.cpu_end - self.cpu_start

    def __enter__(self) -> "Span":
        self.cpu_start = time.process_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.cpu_end = time.process_time()


class _TracedSpan(Span):
    """A span that is kept and nests under the open one."""

    __slots__ = ("rec",)

    def __enter__(self) -> "Span":
        self.rec._stack.append(len(self.rec.spans))
        self.rec.spans.append(self)
        return super().__enter__()

    def __exit__(self, *exc) -> None:
        super().__exit__()
        self.rec._stack.pop()


class Recorder:
    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.columns: dict[str, array] = defaultdict(lambda: array("d"))
        self.n_ops = 0
        self.layers: dict[str, list[float]] = defaultdict(list)
        self.spans: list[Span] = []
        self.failures: list[str] = []
        self.failed_ops = 0
        # samples of each host kernel, by name
        self.host_kernel_ms: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._op = None
        self._pending: dict[str, float] = {}
        self._op_failed = False

    def span(self, name: str) -> Span:
        """Time a block; with tracing on, also keep it as a span."""
        if not self.trace:
            return Span(name, self._op, -1)
        s = _TracedSpan(name, self._op, self._stack[-1] if self._stack else -1)
        s.rec = self
        return s

    def peak_alloc(self, name: str, call) -> None:
        """Traced only: call() again under tracemalloc, outside any span.

        Its peak is the layer sample '<name>.peak_alloc_mb'. The call is
        not timed, so tracemalloc slows none of the recorded timings.
        """
        if not self.trace:
            return
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.layer(f"{name}.peak_alloc_mb", peak / 2 ** 20)

    def begin_op(self, op) -> None:
        self._op = op
        self._op_failed = False
        self._pending = {}

    def end_op(self) -> None:
        if self._op_failed:
            self.failed_ops += 1
        else:
            for name, value in self._pending.items():
                self.columns[name].append(value)
            self.n_ops += 1
        self._op = None

    def add(self, name: str, value: float) -> None:
        """An end-to-end sample of the current operation."""
        self._pending[name] = float(value)

    def layer(self, name: str, value: float) -> None:
        """A per-layer sample; kept only when tracing."""
        if self.trace:
            self.layers[name].append(float(value))

    def fail(self, message: str) -> None:
        self._op_failed = True
        if len(self.failures) < 20:
            self.failures.append(f"op {self._op}: {message}")

    def span_seconds(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            out[s.name].append(s.seconds)
        return out

    def write_spans(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        path.write_text(json.dumps({
            **header,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": rows,
        }))
