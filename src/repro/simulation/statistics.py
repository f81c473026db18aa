"""Time-series statistics of simulated runs.

For studying *how* a protocol converges (phases, bottlenecks, epidemic
waves) the final configuration is not enough; this module records the
full count trajectory of a run at a configurable resolution:

* :class:`TimeSeries` — per-state counts sampled along parallel time,
  with accessors for single-state trajectories, consensus fraction and
  a compact text rendering (sparkline-style) for terminal inspection;
* :func:`record_time_series` — drive a :class:`CountScheduler` (exact)
  or a one-trial :class:`VectorEnsembleScheduler` (tau-leaping) and
  sample every ``resolution`` units of parallel time.

The examples use this to show the two phases of threshold protocols
(combining, then the acceptance epidemic); tests use it to assert
conservation laws hold along entire trajectories, not just endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol
from .scheduler import CountScheduler, _is_silent_consensus
from .vectorized import VectorEnsembleScheduler

__all__ = ["TimeSeries", "record_time_series"]

State = Hashable

_SPARK = "▁▂▃▄▅▆▇█"


@dataclass
class TimeSeries:
    """Sampled count trajectories of one simulated run."""

    protocol: PopulationProtocol
    times: List[float] = field(default_factory=list)
    samples: List[Multiset] = field(default_factory=list)

    def record(self, time: float, configuration: Multiset) -> None:
        """Append one sample at the given parallel time."""
        self.times.append(time)
        self.samples.append(configuration)

    @property
    def population(self) -> int:
        """Population size (constant along fault-free runs)."""
        return self.samples[0].size if self.samples else 0

    def counts_of(self, state: State) -> List[int]:
        """The trajectory of one state's count."""
        return [sample[state] for sample in self.samples]

    def consensus_fraction(self, b: int) -> List[float]:
        """Fraction of agents whose state outputs ``b``, over time."""
        keys = [q for q in self.protocol.states if self.protocol.output[q] == b]
        return [
            sample.count(keys) / sample.size if sample.size else 0.0
            for sample in self.samples
        ]

    def final(self) -> Multiset:
        """The last sampled configuration."""
        if not self.samples:
            raise ValueError("empty time series")
        return self.samples[-1]

    def sparkline(self, state: State, width: int = 60) -> str:
        """A terminal-friendly rendering of one state's trajectory."""
        counts = self.counts_of(state)
        if not counts:
            return ""
        if len(counts) > width:
            stride = len(counts) / width
            counts = [counts[int(i * stride)] for i in range(width)]
        peak = max(max(counts), 1)
        chars = [_SPARK[min(len(_SPARK) - 1, (c * len(_SPARK)) // (peak + 1))] for c in counts]
        return f"{state!s:>10} |{''.join(chars)}| peak {peak}"

    def render(self, states: Optional[Sequence[State]] = None, width: int = 60) -> str:
        """Sparklines for several states (default: all populated ones)."""
        if states is None:
            populated = set()
            for sample in self.samples:
                populated.update(sample.support())
            states = [q for q in self.protocol.states if q in populated]
        lines = [f"time 0 .. {self.times[-1]:.1f} (parallel), n = {self.population}"]
        lines.extend(self.sparkline(state, width) for state in states)
        return "\n".join(lines)


def record_time_series(
    protocol: PopulationProtocol,
    inputs,
    max_parallel_time: float,
    resolution: float = 1.0,
    seed: Optional[int] = None,
    use_batch: bool = False,
) -> TimeSeries:
    """Simulate to silent consensus, sampling every ``resolution`` units.

    ``use_batch=True`` switches to the tau-leaping engine at
    ``trials=1`` (for large populations), leaping at most its
    ``leap_size`` interactions at a time as its ``run`` does, however
    coarse the ``resolution``; otherwise the exact count-based
    scheduler is used.
    As in the schedulers' ``run``, the budget ``max_parallel_time * n``
    must be positive and finite and is rounded up, so it always covers
    at least one interaction.
    """
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    if not (math.isfinite(max_parallel_time) and max_parallel_time > 0):
        raise ValueError(
            f"max_parallel_time must be positive and finite, got {max_parallel_time}"
        )
    series = TimeSeries(protocol=protocol)
    if use_batch:
        scheduler = VectorEnsembleScheduler(protocol, trials=1, seed=seed)
    else:
        scheduler = CountScheduler(protocol, seed=seed)
    scheduler.reset(inputs)
    n = scheduler.population

    def configuration() -> Multiset:
        return scheduler.configuration(0) if use_batch else scheduler.configuration

    series.record(0.0, configuration())
    steps_per_sample = max(1, int(resolution * n))
    total_budget = max(1, math.ceil(max_parallel_time * n))
    done = 0
    while done < total_budget:
        if _is_silent_consensus(protocol, configuration()):
            break
        chunk = min(steps_per_sample, total_budget - done)
        if use_batch:
            leap_size = scheduler.leap_size
            for start in range(0, chunk, leap_size):
                scheduler.leap([min(leap_size, chunk - start)])
        else:
            for _ in range(chunk):
                scheduler.step()
        done += chunk
        series.record(done / n, configuration())
    return series
