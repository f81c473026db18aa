"""Named counters — the metrics half of :mod:`repro.obs`.

One process-wide registry of named :class:`Instrumentation` objects
(:func:`get_metrics`) collects counts that have no span to live on:
the tracer folds each finished span's counters into the ``"spans"``
entry as ``<span>.<counter>`` (the e2e harness's traced child reads
them), and the analysis cache counts its lookups under ``"cache"``.
Worker envelopes ship registry deltas as ``{registry: {counter:
value}}`` maps, so a ``--jobs N`` run counts what a serial one does.

Times are not kept here: a run's time lives in its spans, and
:func:`repro.obs.profile.build_profile` is the one fold of them.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = [
    "Instrumentation",
    "get_metrics",
    "registry_snapshot",
    "clear_registry",
]


class Instrumentation:
    """Named counters.

    >>> inst = Instrumentation()
    >>> inst.add("leaps")
    >>> inst.add("interactions", 500)
    >>> inst.snapshot()["interactions"]
    500
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def add(self, name: str, value: int = 1) -> None:
        """Increment a counter (created at zero on first use)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def clear(self) -> None:
        """Drop all counters."""
        self.counters.clear()

    def merge(self, counters: Mapping[str, int]) -> None:
        """Fold a counter map into this object (a worker's registry delta)."""
        for name, value in counters.items():
            self.add(name, value)

    def snapshot(self) -> Dict[str, int]:
        """A copy of the counters at this instant."""
        return dict(self.counters)


# ----------------------------------------------------------------------
# The process-wide registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Instrumentation] = {}


def get_metrics(name: str) -> Instrumentation:
    """The registry's :class:`Instrumentation` for ``name`` (created lazily).

    Subsystems that have no natural object to hang a count on
    (module-level search functions, the cache) report here.
    """
    instrumentation = _REGISTRY.get(name)
    if instrumentation is None:
        instrumentation = _REGISTRY[name] = Instrumentation()
    return instrumentation


def registry_snapshot() -> Dict[str, Dict[str, int]]:
    """``{registry: {counter: value}}`` copies of every registered object."""
    return {name: inst.snapshot() for name, inst in _REGISTRY.items()}


def clear_registry() -> None:
    """Reset every registered instrumentation object (test isolation)."""
    for instrumentation in _REGISTRY.values():
        instrumentation.clear()
