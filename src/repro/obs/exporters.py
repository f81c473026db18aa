"""Trace exporters: JSONL event logs and Chrome trace-event JSON.

Two file formats, chosen by extension in the CLI (``.jsonl`` vs
anything else):

* :class:`JsonlExporter` writes one JSON object per line as spans
  finish — an append-only structured log that is greppable, safe
  against crashes (every line already on disk is valid), and trivially
  consumed by ``repro trace summarize``.

* :class:`ChromeTraceExporter` buffers complete events and writes a
  single ``{"traceEvents": [...]}`` JSON document on close, in the
  Chrome trace-event format understood by Perfetto and
  ``chrome://tracing``.  Span attributes and counters travel in
  ``args`` (with ``parent``/``depth`` included so the summarizer can
  rebuild the nesting without relying on time containment).

Both formats use microsecond timestamps relative to the tracer origin.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .tracer import Span, SpanExporter

__all__ = [
    "JsonlExporter",
    "ChromeTraceExporter",
    "RecordingExporter",
    "exporter_for_path",
]


def _jsonable(value: Any) -> Any:
    """Coerce attribute values to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _clean(attributes: Dict[str, Any]) -> Dict[str, Any]:
    return {key: _jsonable(value) for key, value in attributes.items()}


class JsonlExporter(SpanExporter):
    """Append-only JSONL event log (one object per finished span/event).

    Every line is flushed to the OS as it is written: a SIGKILLed or
    crashed process leaves at most one truncated line at the tail, and
    everything before it is complete, valid JSON — the crash-safety
    contract ``repro trace summarize`` and the run registry's
    post-mortem path rely on.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "w")
        self._write({"type": "meta", "format": "repro-trace", "version": 1})

    def _write(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def export(self, span: Span) -> None:
        self._write(
            {
                "type": "span",
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "depth": span.depth,
                "start_us": span.start_us,
                "dur_us": span.duration_us,
                "attrs": _clean(span.attributes),
                "counters": dict(span.counters),
            }
        )

    def export_event(self, name: str, timestamp_us: float, attributes: Dict[str, Any]) -> None:
        self._write(
            {
                "type": "event",
                "name": name,
                "ts_us": timestamp_us,
                "attrs": _clean(attributes),
            }
        )

    def close(self) -> None:
        self._handle.close()


class RecordingExporter(SpanExporter):
    """Buffers finished spans as plain picklable dicts (no file I/O).

    Used by the parallel workers: a worker traces its task into this
    exporter and ships ``records`` back inside the result envelope; the
    parent re-emits them (ids remapped, timestamps re-based) so one
    trace file describes the whole fan-out.  The record shape is the
    JSONL span shape understood by :func:`repro.obs.summary.load_trace`.

    Instant events (progress heartbeats) are buffered separately in
    ``events`` — the per-worker event shard the parent re-emits through
    its own tracer in task order, beside the task's spans.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []

    def export_event(self, name: str, timestamp_us: float, attributes: Dict[str, Any]) -> None:
        self.events.append(
            {
                "type": "event",
                "name": name,
                "ts_us": timestamp_us,
                "attrs": _clean(attributes),
            }
        )

    def export(self, span: Span) -> None:
        self.records.append(
            {
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "depth": span.depth,
                "start_us": span.start_us,
                "dur_us": span.duration_us,
                "attrs": _clean(span.attributes),
                "counters": dict(span.counters),
            }
        )


class ChromeTraceExporter(SpanExporter):
    """Chrome trace-event JSON for Perfetto / ``chrome://tracing``."""

    def __init__(self, path: str, process_name: str = "repro"):
        self.path = path
        self._events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "name": "process_name",
                "args": {"name": process_name},
            }
        ]

    def export(self, span: Span) -> None:
        args = _clean(span.attributes)
        args["counters"] = dict(span.counters)
        args["parent"] = span.parent_id
        args["depth"] = span.depth
        self._events.append(
            {
                "ph": "X",  # complete event: timestamp + duration
                "pid": 1,
                "tid": 1,
                "name": span.name,
                "ts": span.start_us,
                "dur": span.duration_us,
                "id": span.span_id,
                "args": args,
            }
        )

    def export_event(self, name: str, timestamp_us: float, attributes: Dict[str, Any]) -> None:
        self._events.append(
            {
                "ph": "i",  # instant event
                "s": "t",
                "pid": 1,
                "tid": 1,
                "name": name,
                "ts": timestamp_us,
                "args": _clean(attributes),
            }
        )

    def close(self) -> None:
        with open(self.path, "w") as handle:
            json.dump(
                {"traceEvents": self._events, "displayTimeUnit": "ms"},
                handle,
                indent=1,
            )
            handle.write("\n")


def exporter_for_path(path: str) -> SpanExporter:
    """``.jsonl`` gets the event log; everything else Chrome trace JSON."""
    if path.endswith(".jsonl"):
        return JsonlExporter(path)
    return ChromeTraceExporter(path)
