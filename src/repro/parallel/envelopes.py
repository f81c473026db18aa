"""Picklable task and result envelopes for the process pool.

Workers live in separate processes, so everything crossing the
boundary is a plain frozen dataclass of picklable fields.  A
:class:`TaskEnvelope` names one unit of work: its stable ``index`` in
the work list (which drives ordering — never the worker id) and an
arbitrary picklable ``payload``; a randomised sweep puts its seeds in
the payload, so they never depend on the worker.  A
:class:`ResultEnvelope` carries the task's return value back together
with the observability sidecar: the worker-local metrics registry
delta and the spans and events the task recorded, so the parent can
merge them and keep ``--trace`` / ``--json`` artifacts and the run's
``trace.jsonl`` coherent across workers.

``worker_pid`` and ``elapsed_us`` are *display-only* — they describe
where and how long the task ran, vary from run to run, and must never
influence merged results (the differential suite would catch it if
they did).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["TaskEnvelope", "ResultEnvelope"]


@dataclass(frozen=True)
class TaskEnvelope:
    """One unit of work: stable index and payload."""

    index: int
    payload: Any
    capture_spans: bool = False


@dataclass(frozen=True)
class ResultEnvelope:
    """One task's outcome plus its observability sidecar.

    ``metrics`` maps registry names to ``InstrumentationSnapshot.as_dict``
    payloads (the worker's registry delta for this task); ``spans`` holds
    the recorded span dicts in the :class:`repro.obs.SpanRecord` JSONL
    shape, with ids local to the worker's recording tracer.  ``events``
    is the task's instant-event shard (progress heartbeats recorded
    inside the worker); the parent re-emits each shard through its own
    tracer, in task order, so every sink gets the same merged stream.
    """

    index: int
    value: Any
    metrics: Mapping[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    spans: Tuple[Dict[str, Any], ...] = ()
    events: Tuple[Dict[str, Any], ...] = ()
    elapsed_us: float = 0.0
    worker_pid: Optional[int] = None
