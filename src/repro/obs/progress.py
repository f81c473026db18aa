"""Periodic progress heartbeats for the iterative algorithms.

A stalled ``repro analyze`` and an Ackermann-sized one look identical
from the outside — the whole point of the paper's lower bounds is that
these searches can be astronomically long.  The heartbeat layer makes
the difference visible: an iterative loop creates a meter once and
calls :meth:`ProgressMeter.tick` every round; at most once per
``interval`` seconds the meter emits one line to stderr, e.g. ::

    [karp-miller] 12.0s 48210 iterations (4017/s) frontier=1203 nodes=48210

and mirrors the same numbers into the active tracer as an instant
event, so traces carry the frontier/basis trajectory, not just totals.

Cost discipline mirrors the tracer: when progress reporting is
disabled (the default) ``progress(...)`` returns a shared null meter
whose ``tick()`` is a bare no-op method call, and stats are produced
by a *callback* that only runs when a heartbeat is actually emitted —
hot loops never build a stats dict per iteration.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, Optional, TextIO

from .tracer import get_tracer

__all__ = [
    "ProgressMeter",
    "progress",
    "enable_progress",
    "disable_progress",
    "progress_enabled",
    "set_progress_interval",
]

StatsCallback = Callable[[], Dict[str, Any]]


class ProgressMeter:
    """Rate-limited heartbeat emitter for one named loop.

    ``emit_stderr=False`` keeps the stderr line off while still
    mirroring each heartbeat into the active tracer — the configuration
    a ``--trace``-only (or run-recorded) command uses, so trace files
    and the run's stream carry the frontier/rate trajectory without
    any terminal noise.  Each rate-limited window emits exactly one
    tracer event however many sinks are on: the stderr line and the
    trace record come from the same ``_emit`` call, never two.
    """

    def __init__(
        self,
        name: str,
        stats: Optional[StatsCallback] = None,
        *,
        interval: float = 1.0,
        stride: int = 64,
        stream: Optional[TextIO] = None,
        emit_stderr: bool = True,
    ):
        self.name = name
        self._stats = stats
        self._interval = interval
        self._stride = max(1, stride)
        self._emit_stderr = emit_stderr
        self._stream = stream if stream is not None else sys.stderr
        self._count = 0
        self._since_check = 0
        self._start = time.perf_counter()
        self._last_emit = self._start
        self._last_count = 0
        self.heartbeats = 0

    def tick(self, n: int = 1) -> None:
        """Count ``n`` iterations; emit a heartbeat at most once per interval.

        The wall clock is only consulted every ``stride`` ticks, so the
        per-iteration cost is two integer additions and a comparison.
        """
        self._count += n
        self._since_check += 1
        if self._since_check < self._stride:
            return
        self._since_check = 0
        now = time.perf_counter()
        if now - self._last_emit < self._interval:
            return
        self._emit(now)

    def _emit(self, now: float) -> None:
        elapsed = now - self._start
        window = now - self._last_emit
        rate = (self._count - self._last_count) / window if window > 0 else 0.0
        stats = self._stats() if self._stats is not None else {}
        if self._emit_stderr:
            detail = " ".join(f"{key}={value}" for key, value in stats.items())
            line = (
                f"[{self.name}] {elapsed:.1f}s {self._count} iterations "
                f"({rate:.0f}/s)" + (f" {detail}" if detail else "")
            )
            print(line, file=self._stream)
        get_tracer().event(
            f"heartbeat:{self.name}",
            iterations=self._count,
            rate_per_s=round(rate, 1),
            elapsed_s=round(elapsed, 3),
            **stats,
        )
        self._last_emit = now
        self._last_count = self._count
        self.heartbeats += 1

    def finish(self) -> None:
        """Emit one final heartbeat if anything was counted since the last."""
        if self._count > self._last_count and self.heartbeats > 0:
            self._emit(time.perf_counter())


class _NullMeter:
    """Shared no-op meter used while progress reporting is disabled."""

    __slots__ = ()

    def tick(self, n: int = 1) -> None:
        return None

    def finish(self) -> None:
        return None


_NULL_METER = _NullMeter()

_ENABLED = False
_STREAM: Optional[TextIO] = None
_INTERVAL = 1.0


def enable_progress(stream: Optional[TextIO] = None, interval: float = 1.0) -> None:
    """Turn heartbeat emission on (CLI ``--progress``).

    ``interval`` is seconds between heartbeats and must be positive —
    a zero or negative interval would turn the rate limiter into a
    per-tick emitter and flood stderr.
    """
    if not interval > 0:
        raise ValueError(f"heartbeat interval must be > 0 seconds, got {interval}")
    global _ENABLED, _STREAM, _INTERVAL
    _ENABLED = True
    _STREAM = stream
    _INTERVAL = interval


def disable_progress() -> None:
    """Turn heartbeat emission back off."""
    global _ENABLED, _STREAM
    _ENABLED = False
    _STREAM = None


def set_progress_interval(interval: float) -> None:
    """Set the heartbeat interval without enabling stderr emission.

    Used by the CLI so ``--progress-interval`` also paces the
    trace-mirrored heartbeats of a ``--trace``-only command.
    """
    if not interval > 0:
        raise ValueError(f"heartbeat interval must be > 0 seconds, got {interval}")
    global _INTERVAL
    _INTERVAL = interval


def progress_enabled() -> bool:
    """Is heartbeat emission currently on?"""
    return _ENABLED


def progress(name: str, stats: Optional[StatsCallback] = None, **kwargs):
    """A meter for one loop — real when any heartbeat sink is on.

    Stderr heartbeats need :func:`enable_progress` (``--progress``);
    a live tracer alone (``--trace`` or a recorded run) also gets a
    real meter, with stderr off, so heartbeat history lands in the
    trace and the run's stream.  With neither sink active the shared
    no-op meter keeps the disabled path at a bare method call.
    """
    if not _ENABLED and not get_tracer().enabled:
        return _NULL_METER
    kwargs.setdefault("stream", _STREAM)
    kwargs.setdefault("interval", _INTERVAL)
    kwargs.setdefault("emit_stderr", _ENABLED)
    return ProgressMeter(name, stats, **kwargs)
