"""Merging worker observability back into the parent process.

Parallel execution must not degrade observability: the parent's
metrics registry still holds every worker's counts, and every sink of
the parent's tracer (a ``--trace`` file, a recorded run's
``trace.jsonl``) still describes the whole run.  Three merge
operations make that true:

* :func:`merge_registry_delta` — fold a worker's metrics-registry
  delta (shipped in the result envelope as ``{registry: {counter:
  value}}``) into the parent's process-wide registry.  Counters are
  sums, and therefore identical between serial and parallel runs.
* :func:`adopt_recorded_spans` — re-emit spans recorded by a worker
  into the parent's live tracer: ids remapped onto the parent's id
  space, timestamps re-based onto a container span, parent links
  preserved.  Because ``repro trace summarize`` computes *self* time
  from parent links (not time containment), per-worker spans merge
  without overlapping self-time even though workers run concurrently.
* :func:`adopt_recorded_events` — re-emit a worker's instant events
  (progress heartbeats) through the parent's tracer, re-based the same
  way and tagged with the task index and worker PID.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from ..obs import get_metrics

__all__ = ["merge_registry_delta", "adopt_recorded_spans", "adopt_recorded_events"]


def merge_registry_delta(delta: Mapping[str, Mapping[str, int]]) -> None:
    """Fold one worker's registry delta into the parent registry.

    ``delta`` is the envelope's ``metrics`` field: registry name ->
    counter name -> count.
    """
    for name, counters in delta.items():
        get_metrics(name).merge(counters)


def adopt_recorded_spans(
    tracer: Any,
    records: Sequence[Dict[str, Any]],
    *,
    base_us: float,
    container_id: Optional[int],
    container_depth: int,
) -> int:
    """Re-emit a worker's recorded spans under a container span.

    ``records`` use worker-local span ids (the
    :class:`~repro.obs.RecordingExporter` shape); each gets a fresh id
    from the parent tracer, its parent link remapped (worker roots hang
    off ``container_id``), and its timestamps shifted by ``base_us`` so
    the worker timeline nests inside the container.  Returns the number
    of spans adopted.
    """
    if not records:
        return 0
    id_map = {
        record["id"]: tracer.allocate_span_id()
        for record in records
        if record.get("id") is not None
    }
    for record in records:
        worker_parent = record.get("parent")
        tracer.adopt_span(
            record["name"],
            span_id=id_map.get(record.get("id")),
            start_us=base_us + float(record.get("start_us", 0.0)),
            duration_us=float(record.get("dur_us", 0.0)),
            parent_id=id_map.get(worker_parent, container_id),
            depth=container_depth + 1 + int(record.get("depth", 0)),
            attributes=record.get("attrs"),
            counters=record.get("counters"),
        )
    return len(records)


def adopt_recorded_events(
    tracer: Any,
    events: Sequence[Dict[str, Any]],
    *,
    base_us: float,
    task: int,
    worker_pid: Optional[int],
) -> None:
    """Re-emit one task's event shard through ``tracer``.

    Called once per task in task order, so every sink receives the
    shards in the same order whichever worker finished first.
    """
    for record in events:
        attributes = dict(record.get("attrs", {}))
        attributes.setdefault("task", task)
        attributes.setdefault("worker_pid", worker_pid)
        tracer.adopt_event(
            record["name"],
            timestamp_us=base_us + float(record.get("ts_us", 0.0)),
            attributes=attributes,
        )
