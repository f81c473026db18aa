"""The process-pool execution backend.

:func:`run_tasks` is the single entry point every parallel sweep in the
toolkit goes through (busy-beaver enumeration chunks, conformance
sub-checks, ensemble trial chunks, report sections).  The contract:

* **Determinism.**  Results come back in *task order*, never completion
  order, and a randomised sweep carries its seeds in its payloads (trial
  ``t`` of an ensemble runs under ``seed + t``) — so the merged outcome
  is bit-identical for any ``jobs`` value, including the in-process
  serial path at ``jobs=1``.  The differential suite
  (``tests/test_parallel.py``) is the enforcement of this contract; no
  speedup claim stands without it.
* **Serial is the reference.**  ``jobs=1`` runs the same task functions
  inline: metrics flow into the live registry, and spans and events
  (progress heartbeats) into the live tracer, exactly as a hand-written
  loop would.  The parallel path must reproduce that observable
  behaviour by shipping worker deltas home (:mod:`repro.parallel.merge`):
  each task's spans and events reach every sink of the parent's tracer,
  task by task in task order.
* **Workers are hygienic.**  A task starts from a clean tracer (never
  the parent's — a forked file-handle exporter must not be written to)
  and a cleared metrics registry, so the envelope's sidecar is exactly
  the task's own contribution, counted once.  A worker dies of SIGINT
  and SIGTERM instead of running the parent's handlers.

Task functions must be module-level (picklable) callables taking one
:class:`~repro.parallel.envelopes.TaskEnvelope`.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs import (
    NULL_TRACER,
    RecordingExporter,
    Tracer,
    clear_registry,
    get_tracer,
    progress,
    registry_snapshot,
    set_tracer,
)
from .envelopes import ResultEnvelope, TaskEnvelope
from .merge import adopt_recorded_events, adopt_recorded_spans, merge_registry_delta

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["run_tasks", "worker_pool", "resolve_jobs", "chunk_ranges", "default_chunk_size"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs


def chunk_ranges(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunks covering ``range(total)``."""
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [(start, min(start + chunk_size, total)) for start in range(0, total, chunk_size)]


def default_chunk_size(total: int, jobs: int, *, per_worker: int = 4) -> int:
    """A chunk size giving each worker ~``per_worker`` chunks to balance load.

    Serial runs get one chunk (zero partitioning overhead); parallel
    runs get enough chunks that a straggler chunk cannot idle the other
    workers for long, without drowning in per-task pickling.
    """
    if jobs <= 1:
        return max(1, total)
    return max(1, -(-total // (jobs * per_worker)))


@contextmanager
def worker_pool(jobs: Optional[int]) -> Iterator[Optional[ProcessPoolExecutor]]:
    """A reusable executor for call sites issuing many ``run_tasks`` waves.

    Round-structured algorithms (the Karp–Miller frontier, backward
    coverability) call :func:`run_tasks` once per round; respawning a
    process pool each round would dominate small rounds.  This yields a
    single executor to thread through via the ``executor=`` parameter —
    or ``None`` at ``jobs<=1``, where :func:`run_tasks` runs inline
    anyway.  Determinism is unaffected: the executor only carries the
    worker processes, never results or ordering.  Leaving the block by
    an exception (a Ctrl-C) cancels the tasks still queued.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor

    executor = ProcessPoolExecutor(max_workers=jobs, initializer=_default_signals)
    try:
        yield executor
    finally:
        executor.shutdown(cancel_futures=True)


def _default_signals() -> None:
    """Worker initializer: SIGINT and SIGTERM kill the worker outright.

    A forked worker inherits the parent's handlers (a recorded run's
    finalizer among them), and a Ctrl-C reaches the whole process
    group.  A worker that turned the signal into an exception would go
    on to run the tasks already queued to it; one that dies breaks the
    pool, so the parent's shutdown returns at once.
    """
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)


def _execute_task(fn: Callable[[TaskEnvelope], Any], task: TaskEnvelope) -> ResultEnvelope:
    """Worker-side wrapper: clean observability state, run, pack the envelope."""
    clear_registry()
    recorder = RecordingExporter() if task.capture_spans else None
    worker_tracer = Tracer([recorder]) if recorder is not None else NULL_TRACER
    set_tracer(worker_tracer)
    start = time.perf_counter()
    try:
        value = fn(task)
    finally:
        worker_tracer.close()
        set_tracer(NULL_TRACER)
    elapsed_us = (time.perf_counter() - start) * 1e6
    return ResultEnvelope(
        index=task.index,
        value=value,
        metrics={name: counters for name, counters in registry_snapshot().items() if counters},
        spans=tuple(recorder.records) if recorder is not None else (),
        events=tuple(recorder.events) if recorder is not None else (),
        elapsed_us=elapsed_us,
        worker_pid=os.getpid(),
    )


def run_tasks(
    fn: Callable[[TaskEnvelope], Any],
    payloads: Sequence[Any],
    *,
    jobs: int = 1,
    label: str = "parallel",
    executor: Optional[ProcessPoolExecutor] = None,
) -> List[ResultEnvelope]:
    """Run ``fn`` over ``payloads``; results are returned in task order.

    ``jobs=1`` executes inline (the reference semantics); ``jobs>1``
    fans out over a process pool, then merges each worker's metrics
    registry delta into this process's registry and adopts its recorded
    spans and events into the live trace.  An ``executor`` from
    :func:`worker_pool` is reused (and left open); otherwise a pool is
    created for this call and shut down when it ends, with the tasks
    still queued cancelled if an exception (a Ctrl-C) ends it early.
    """
    jobs = resolve_jobs(jobs)
    capture = bool(get_tracer().enabled) and jobs > 1 and len(payloads) > 1
    tasks = [
        TaskEnvelope(index=index, payload=payload, capture_spans=capture)
        for index, payload in enumerate(payloads)
    ]
    if jobs <= 1 or len(tasks) <= 1:
        return [
            ResultEnvelope(index=task.index, value=fn(task), worker_pid=os.getpid())
            for task in tasks
        ]

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    tracer = get_tracer()
    done = 0
    # One tick per finished task, each reading the clock: a pool of
    # fewer tasks than the default stride would never emit a heartbeat.
    meter = progress(
        label, lambda: {"tasks_done": done, "tasks": len(tasks)}, stride=1
    )
    with tracer.span(
        "parallel.pool", label=label, jobs=jobs, tasks=len(tasks)
    ) as pool_span:
        results: Dict[int, ResultEnvelope] = {}
        owned = executor is None
        pool = executor if executor is not None else ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_default_signals
        )
        try:
            pending = {pool.submit(_execute_task, fn, task) for task in tasks}
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    envelope = future.result()
                    results[envelope.index] = envelope
                    done += 1
                    meter.tick()
        finally:
            if owned:
                pool.shutdown(cancel_futures=True)
        meter.finish()
        ordered = [results[index] for index in range(len(tasks))]
        adopted = 0
        base_us = getattr(pool_span, "start_us", 0.0)
        for envelope in ordered:
            merge_registry_delta(envelope.metrics)
            if envelope.spans and tracer.enabled:
                container_id = tracer.adopt_span(
                    "parallel.task",
                    start_us=base_us,
                    duration_us=envelope.elapsed_us,
                    parent_id=getattr(pool_span, "span_id", None),
                    depth=getattr(pool_span, "depth", 0) + 1,
                    attributes={"task": envelope.index, "pid": envelope.worker_pid},
                )
                adopted += 1 + adopt_recorded_spans(
                    tracer,
                    envelope.spans,
                    base_us=base_us,
                    container_id=container_id,
                    container_depth=getattr(pool_span, "depth", 0) + 1,
                )
            if envelope.events and tracer.enabled:
                adopt_recorded_events(
                    tracer,
                    envelope.events,
                    base_us=base_us,
                    task=envelope.index,
                    worker_pid=envelope.worker_pid,
                )
        pool_span.set(adopted_spans=adopted)
    return ordered
