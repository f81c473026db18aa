"""Loading and summarising trace files (``repro trace summarize``).

Reads back either exporter format — the JSONL event log or the Chrome
trace-event JSON — into a common :class:`SpanRecord` list, and renders
a per-span-name view of the one span fold,
:func:`repro.obs.profile.build_profile`: call count, total and *self*
wall time (total minus direct children, computed from the recorded
parent/child links, so re-entrant span names never double-count), the
summed per-span counters, and — when the trace was recorded with
memory spans on — the maximum per-span memory peak.

Traces from killed or still-running processes are first-class inputs:
a JSONL tail line a kill cut short is skipped rather than fatal, and
*orphan* spans (``parent_id`` pointing at a span that never made it
into the file, e.g. a parent still open when the process died) are
aggregated as roots instead of raising.  :func:`parse_jsonl` is the
one JSONL reader: the run registry reads its streams through it too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SpanRecord", "parse_jsonl", "load_trace", "trace_summary", "summarize_trace"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, format-independent."""

    name: str
    span_id: Optional[int]
    parent_id: Optional[int]
    depth: int
    start_us: float
    dur_us: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SpanRecord":
        """One span in the JSONL shape (also :class:`RecordingExporter`'s)."""
        return cls(
            name=payload["name"],
            span_id=payload.get("id"),
            parent_id=payload.get("parent"),
            depth=int(payload.get("depth", 0)),
            start_us=float(payload.get("start_us", 0.0)),
            dur_us=float(payload.get("dur_us", 0.0)),
            attributes=dict(payload.get("attrs", {})),
            counters={k: int(v) for k, v in payload.get("counters", {}).items()},
        )


def parse_jsonl(text: str) -> List[Dict[str, Any]]:
    """The records of a JSONL stream, in order.

    A writer killed mid-line leaves one line without its newline, the
    last: every complete line before it is still a valid record, so
    that cut line is skipped — reading the partial stream is exactly
    what a post-mortem needs.  A complete line that is not JSON makes
    the stream corrupt: ``json.JSONDecodeError`` at its stream position.
    """
    lines = text.split("\n")
    records: List[Dict[str, Any]] = []
    offset = 0
    for number, line in enumerate(lines, 1):
        start, offset = offset, offset + len(line) + 1
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            if number == len(lines):
                continue
            raise json.JSONDecodeError(error.msg, text, start + error.pos) from None
    return records


def _from_chrome(document: Dict[str, Any]) -> List[SpanRecord]:
    records: List[SpanRecord] = []
    for event in document.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        # `args` holds the span attributes beside three reserved keys:
        # the nesting metadata and the counters.
        attributes = dict(event.get("args", {}))
        parent = attributes.pop("parent", None)
        depth = attributes.pop("depth", 0)
        counters = {k: int(v) for k, v in attributes.pop("counters", {}).items()}
        records.append(
            SpanRecord(
                name=event["name"],
                span_id=event.get("id"),
                parent_id=parent,
                depth=int(depth or 0),
                start_us=float(event.get("ts", 0.0)),
                dur_us=float(event.get("dur", 0.0)),
                attributes=attributes,
                counters=counters,
            )
        )
    return records


def load_trace(path: str) -> List[SpanRecord]:
    """Parse either trace format into span records (auto-detected)."""
    with open(path) as handle:
        text = handle.read()
    if not text.strip():
        return []
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None  # not one JSON document: treat as JSONL
    if isinstance(document, dict) and "traceEvents" in document:
        return _from_chrome(document)
    return [
        SpanRecord.from_dict(record)
        for record in parse_jsonl(text)
        if record.get("type") == "span"
    ]


_SORT_KEYS = {
    "total": "total_us",
    "self": "self_us",
    "count": "count",
}


def trace_summary(records: List[SpanRecord], sort: str = "total") -> Dict[str, Any]:
    """The machine-readable aggregate behind ``trace summarize --json``.

    A by-name view of :func:`repro.obs.profile.build_profile`: each row
    groups the profile paths ending in one span name, or the plumbing
    stats the profile keeps aside for ``parallel.pool`` /
    ``parallel.task``.  Returns ``{"spans", "names", "max_depth",
    "orphans", "has_memory", "rows"}``; each row carries the same
    quantities the rendered table shows, unformatted (``name``,
    ``count``, ``total_us``, ``self_us``, ``mean_us``, ``peak_kb``,
    ``counters``), in the requested sort order (ties in order of first
    appearance) — so CI and scripts consume summaries without
    re-parsing JSONL or scraping table text.
    """
    from .profile import build_profile  # profile.py imports SpanRecord from here

    if sort not in _SORT_KEYS:
        raise ValueError(
            f"sort must be one of {sorted(_SORT_KEYS)}, got {sort!r}"
        )
    profile = build_profile(records)
    # Keyed in order of first appearance: the stable sort below keeps
    # that order among ties.
    groups: Dict[str, List[Any]] = {record.name: [] for record in records}
    for stats in [*profile.paths.values(), *profile.plumbing.values()]:
        groups[stats.name].append(stats)

    rows = []
    for name, group in groups.items():
        count = sum(stats.count for stats in group)
        total_us = sum(stats.total_us for stats in group)
        peaks = [s.mem_peak_kb for s in group if s.mem_peak_kb is not None]
        counters: Dict[str, int] = {}
        for stats in group:
            for key, value in stats.counters.items():
                counters[key] = counters.get(key, 0) + value
        rows.append(
            {
                "name": name,
                "count": count,
                "total_us": round(total_us, 3),
                "self_us": round(sum(stats.self_us for stats in group), 3),
                "mean_us": round(total_us / count, 3),
                "peak_kb": max(peaks) if peaks else None,
                "counters": dict(sorted(counters.items())),
            }
        )
    rows.sort(key=lambda row: -row[_SORT_KEYS[sort]])
    return {
        "spans": len(records),
        "names": len(rows),
        "max_depth": max((record.depth for record in records), default=0),
        "orphans": profile.orphan_count,
        "has_memory": any(row["peak_kb"] is not None for row in rows),
        "rows": rows,
    }


def summarize_trace(records: List[SpanRecord], sort: str = "total") -> str:
    """Render the per-span aggregate table.

    ``sort`` orders rows by ``total`` wall time (default), ``self``
    time, or call ``count``.  Spans whose recorded parent is absent
    from the file (a truncated trace from a killed run) are treated as
    roots and reported in the header rather than raising.
    """
    from ..fmt import render_table

    summary = trace_summary(records, sort=sort)
    if not summary["rows"]:
        return "(empty trace: no finished spans)"

    has_memory = summary["has_memory"]
    rows = []
    for entry in summary["rows"]:
        counters = " ".join(
            f"{key}={value}" for key, value in entry["counters"].items()
        )
        row = [
            entry["name"],
            entry["count"],
            f"{entry['total_us'] / 1e6:.3f}s",
            f"{entry['self_us'] / 1e6:.3f}s",
            f"{entry['mean_us'] / 1e3:.2f}ms",
        ]
        if has_memory:
            peak = entry["peak_kb"]
            row.append("-" if peak is None else f"{peak:.0f}KB")
        row.append(counters or "-")
        rows.append(row)
    headers = ["span", "count", "total", "self", "mean"]
    if has_memory:
        headers.append("peak mem")
    headers.append("counters")
    table = render_table(headers, rows)
    orphans = summary["orphans"]
    header = (
        f"{summary['spans']} spans, {summary['names']} distinct names, "
        f"max depth {summary['max_depth']}"
    )
    if orphans:
        header += f", {orphans} orphan span{'s' if orphans != 1 else ''} (truncated trace?)"
    return f"{header}\n\n{table}"
