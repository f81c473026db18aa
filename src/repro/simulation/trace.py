"""Execution traces: recording and replaying simulated runs.

A :class:`Trace` records the interaction history of a simulated run —
useful for the examples (showing *how* a protocol converges), for
debugging protocol constructions, and for feeding recorded executions
back into the exact semantics (every trace replays through
:func:`repro.core.semantics.fire_sequence`-style stepping, which the
tests exploit as a consistency check between simulator and semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple, Union

from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol
from .scheduler import CountScheduler, _is_silent_consensus

__all__ = ["TraceEvent", "Trace", "record_trace"]

State = Hashable


@dataclass(frozen=True)
class TraceEvent:
    """One recorded interaction."""

    index: int
    pre: Tuple[State, State]
    post: Tuple[State, State]

    @property
    def changed(self) -> bool:
        """Did this interaction change the configuration?"""
        return Multiset(self.pre) != Multiset(self.post)

    def __str__(self) -> str:
        marker = "" if self.changed else "  (silent)"
        return f"[{self.index:>6}] {self.pre[0]}, {self.pre[1]} -> {self.post[0]}, {self.post[1]}{marker}"


@dataclass
class Trace:
    """A recorded run: initial configuration plus interaction events."""

    protocol: PopulationProtocol
    initial: Multiset
    events: List[TraceEvent] = field(default_factory=list)

    def replay(self) -> Multiset:
        """Re-apply every event to the initial configuration.

        Raises ``ValueError`` if any event is inconsistent (pre states
        not present), making traces a machine-checkable artefact.
        """
        configuration = self.initial
        for event in self.events:
            pre = Multiset(event.pre)
            if not pre <= configuration:
                raise ValueError(f"event {event} not enabled in {configuration.pretty()}")
            configuration = configuration - pre + Multiset(event.post)
        return configuration

    def final_configuration(self) -> Multiset:
        """The configuration after replaying every event."""
        return self.replay()

    def changed_events(self) -> List[TraceEvent]:
        """Only the interactions that changed the configuration."""
        return [e for e in self.events if e.changed]

    def summary(self, head: int = 10) -> str:
        """Human-readable digest: first few effective interactions + totals."""
        effective = self.changed_events()
        lines = [
            f"trace of {self.protocol.name}: {len(self.events)} interactions, "
            f"{len(effective)} effective",
            f"  initial: {self.initial.pretty()}",
        ]
        lines.extend(f"  {event}" for event in effective[:head])
        if len(effective) > head:
            lines.append(f"  ... {len(effective) - head} more effective interactions")
        lines.append(f"  final:   {self.final_configuration().pretty()}")
        return "\n".join(lines)


def record_trace(
    protocol: PopulationProtocol,
    inputs,
    max_steps: int,
    seed: Optional[int] = None,
) -> Trace:
    """Record every interaction of a :class:`CountScheduler` run.

    The run stops at silent consensus or after ``max_steps``, which
    must be at least 1, as in the schedulers' ``run``.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    scheduler = CountScheduler(protocol, seed=seed)
    scheduler.reset(inputs)
    trace = Trace(protocol=protocol, initial=scheduler.configuration)
    for index in range(max_steps):
        if _is_silent_consensus(scheduler.indexed, scheduler.counts):
            break
        outcome = scheduler.step()
        trace.events.append(TraceEvent(index=index, pre=outcome.pre, post=outcome.post))
    return trace
