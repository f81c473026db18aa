"""Span-based tracing for the long-running fixed-point searches.

A *span* is a named, timed region of execution with structured
attributes (set once, at open or close) and per-span counters
(accumulated while the span is open).  Spans nest: the tracer keeps an
open-span stack, so a Karp–Miller construction started inside a
Section 5 certificate search is recorded as a child of that search and
a trace viewer shows the whole pipeline as a flame graph.

Design constraints, in order:

1. **Disabled must be free.**  The default tracer is a process-wide
   no-op singleton: ``get_tracer().span(...)`` costs one attribute
   lookup, one call, and a reused null context manager — no
   allocation, no clock read.  Hot loops (the per-interaction
   simulator paths) are not instrumented at all; only run-level and
   iteration-round granularity carries spans.
2. **Nesting is immune to double counting by construction.**  Every
   span owns exactly one start and one end timestamp; aggregate views
   (``repro trace summarize``) derive *self* time by subtracting child
   durations, so re-entering the same span name never inflates totals.
3. **Exporters are pluggable.**  A finished span is handed to each
   exporter; shipped exporters write JSONL event logs and Chrome
   trace-event JSON (loadable in Perfetto / ``chrome://tracing``).

Timestamps are monotonic (``time.perf_counter_ns``), relative to the
tracer's creation, in microseconds — the native unit of the Chrome
trace-event format.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "SpanExporter",
]


class SpanExporter:
    """Exporter interface: receives finished spans and instant events."""

    def export(self, span: "Span") -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def export_event(
        self, name: str, timestamp_us: float, attributes: Dict[str, Any]
    ) -> None:
        """Record an instant event (heartbeats); optional."""

    def close(self) -> None:
        """Flush and release resources; optional."""


class Span:
    """One timed region: name, nesting position, attributes, counters."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "start_us",
        "end_us",
        "attributes",
        "counters",
        "mem_start_bytes",
        "mem_peak_bytes",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        start_us: float,
        attributes: Dict[str, Any],
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attributes = attributes
        self.counters: Dict[str, int] = {}
        # Memory-span bookkeeping (set only when the owning tracer runs
        # with memory=True; plain tracers never touch these).
        self.mem_start_bytes: Optional[int] = None
        self.mem_peak_bytes: Optional[int] = None

    @property
    def duration_us(self) -> float:
        """Span duration in microseconds (0 while still open)."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def set(self, **attributes: Any) -> None:
        """Attach (or overwrite) structured attributes."""
        self.attributes.update(attributes)

    def add(self, name: str, value: int = 1) -> None:
        """Increment a per-span counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id}, depth={self.depth})"


class _OpenSpan:
    """Context manager closing one span on exit (kept off the Span slots)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.set(error=exc_type.__name__)
        self._tracer._finish(self._span)


class Tracer:
    """A live tracer: open-span stack plus exporters.

    Not thread-safe by design — the searches it observes are
    single-threaded, and keeping the span stack a plain list keeps the
    per-span cost to a few attribute writes.
    """

    enabled = True

    def __init__(self, exporters: Iterable[SpanExporter] = (), *, memory: bool = False):
        """``memory=True`` turns on per-span memory observation: every
        finished span carries ``mem_peak_kb`` (tracemalloc peak above
        the span's entry level, children included) and ``mem_net_kb``
        (allocation delta surviving the span) attributes.  Off by
        default — tracemalloc multiplies allocation cost, and the
        disabled-tracer contract (E12) must stay untouched.  The tracer
        starts tracemalloc if nothing else has, and stops it again on
        :meth:`close`.
        """
        self._exporters: List[SpanExporter] = list(exporters)
        self._stack: List[Span] = []
        self._next_id = 1
        self._origin_ns = time.perf_counter_ns()
        self.finished_spans = 0
        self.memory = bool(memory)
        self._started_tracemalloc = False
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    # ------------------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._origin_ns) / 1_000.0

    def span(self, name: str, **attributes: Any) -> _OpenSpan:
        """Open a span; use as ``with tracer.span("phase", k=3) as sp:``."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            start_us=self._now_us(),
            attributes=attributes,
        )
        self._next_id += 1
        if self.memory:
            # Window accounting: remember the entry level and reset the
            # global tracemalloc peak so this span's window starts clean.
            # Nested spans re-reset it; _finish propagates each child's
            # observed peak back to its parent, so every open span still
            # sees the true maximum over its whole extent.
            current, _ = tracemalloc.get_traced_memory()
            span.mem_start_bytes = current
            span.mem_peak_bytes = current
            tracemalloc.reset_peak()
        self._stack.append(span)
        return _OpenSpan(self, span)

    def _finish(self, span: Span) -> None:
        span.end_us = self._now_us()
        if self.memory and span.mem_start_bytes is not None:
            current, window_peak = tracemalloc.get_traced_memory()
            peak = max(span.mem_peak_bytes or 0, window_peak)
            span.set(
                mem_peak_kb=round(max(0, peak - span.mem_start_bytes) / 1024.0, 1),
                mem_net_kb=round((current - span.mem_start_bytes) / 1024.0, 1),
            )
            tracemalloc.reset_peak()
            # The enclosing span must not lose this peak to the reset.
            if len(self._stack) >= 2:
                parent = self._stack[-2]
                if parent.mem_peak_bytes is not None:
                    parent.mem_peak_bytes = max(parent.mem_peak_bytes, peak)
        # Tolerate mis-nested exits (an exception unwinding through
        # several spans): pop up to and including this span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.finished_spans += 1
        for exporter in self._exporters:
            exporter.export(span)
        # Fold the span's counters into the ``spans`` registry as
        # ``<span>.<counter>``: the e2e harness's traced child reads its
        # work counts there.  Times stay in the exported spans.
        if span.counters:
            from .metrics import get_metrics

            metrics = get_metrics("spans")
            for name, value in span.counters.items():
                metrics.add(f"{span.name}.{name}", value)

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def allocate_span_id(self) -> int:
        """Reserve a fresh span id (for adopting foreign span trees)."""
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def adopt_span(
        self,
        name: str,
        *,
        start_us: float,
        duration_us: float,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        depth: int = 0,
        attributes: Optional[Dict[str, Any]] = None,
        counters: Optional[Dict[str, int]] = None,
    ) -> int:
        """Export an already-finished span recorded elsewhere.

        Used to merge spans recorded by parallel workers into the
        parent's trace: the caller supplies remapped ids, re-based
        timestamps and the parent link, and the span goes straight to
        the exporters.  Unlike :meth:`_finish` this does *not* fold the
        span into the metrics registry — worker metrics travel in the
        result envelope's registry delta and are merged exactly once.
        """
        if span_id is None:
            span_id = self.allocate_span_id()
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            depth=depth,
            start_us=start_us,
            attributes=dict(attributes or {}),
        )
        span.end_us = start_us + duration_us
        if counters:
            span.counters.update(counters)
        self.finished_spans += 1
        for exporter in self._exporters:
            exporter.export(span)
        return span_id

    def event(self, name: str, **attributes: Any) -> None:
        """Record an instant event (used by progress heartbeats)."""
        self.adopt_event(name, timestamp_us=self._now_us(), attributes=attributes)

    def adopt_event(
        self, name: str, *, timestamp_us: float, attributes: Dict[str, Any]
    ) -> None:
        """Export an instant event recorded elsewhere (a worker's shard)."""
        for exporter in self._exporters:
            exporter.export_event(name, timestamp_us, attributes)

    def close(self) -> None:
        """Close any spans left open (crash tolerance), then exporters."""
        while self._stack:
            self._finish(self._stack[-1])
        for exporter in self._exporters:
            exporter.close()
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False


class _NullSpan:
    """Reusable no-op span: context manager, ``set`` and ``add`` do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attributes: Any) -> None:
        return None

    def add(self, name: str, value: int = 1) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a reused no-op."""

    enabled = False
    memory = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def allocate_span_id(self) -> int:
        return 0

    def adopt_span(self, name: str, **kwargs: Any) -> int:
        return 0

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()

_CURRENT: Any = NULL_TRACER


def get_tracer():
    """The active tracer (the no-op singleton unless tracing is on)."""
    return _CURRENT


def set_tracer(tracer) -> Any:
    """Install ``tracer`` as the active one; returns the previous tracer."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer if tracer is not None else NULL_TRACER
    return previous
