"""Parallel execution backend for enumeration, conformance and sweeps.

The busy-beaver enumeration, the conformance sweeps and the Monte
Carlo convergence runs are embarrassingly parallel; this package is
the one execution backend they all share:

* :mod:`repro.parallel.pool` — :func:`run_tasks`, a process pool with
  chunked work distribution whose results merge in task order;
* :mod:`repro.parallel.envelopes` — the picklable task/result shapes
  crossing the process boundary;
* :mod:`repro.parallel.merge` — folding worker metrics and spans back
  into the parent so ``--json`` and ``--trace`` artifacts stay
  coherent.

The backend's contract is *differential*: ``jobs=1`` (inline) and any
``jobs>1`` produce bit-identical results and identical merged counters
for any chunk size — proven by ``tests/test_parallel.py`` before any
speedup is claimed (benchmark E13).  The backend draws no randomness
itself: a randomised sweep puts its seeds in its payloads (trial ``t``
of an ensemble runs under ``seed + t``), so no seed depends on which
worker runs a task.
"""

from .envelopes import ResultEnvelope, TaskEnvelope
from .merge import adopt_recorded_spans, merge_registry_delta
from .pool import chunk_ranges, default_chunk_size, resolve_jobs, run_tasks, worker_pool

__all__ = [
    "TaskEnvelope",
    "ResultEnvelope",
    "run_tasks",
    "worker_pool",
    "resolve_jobs",
    "chunk_ranges",
    "default_chunk_size",
    "merge_registry_delta",
    "adopt_recorded_spans",
]
