"""Convergence measurements: parallel time statistics.

The paper's introduction recalls that every Presburger predicate is
decidable in ``O(n log n)`` parallel time [6].  Experiment E9 measures
this on the shipped protocols: repeated simulation runs, each stopped
at silent consensus, produce parallel-time samples whose growth in the
population size ``n`` is compared against ``c * log n``.

Convergence here means *silent consensus* — no transition can change
the configuration and all agents agree — which is a sufficient (and
for the shipped protocols, the actual) form of stabilisation; it is
detectable locally in O(|T|) per check, unlike b-stability which needs
a reachability argument.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..core.protocol import PopulationProtocol
from ..parallel import chunk_ranges, default_chunk_size, run_tasks
from .ensembles import _ensemble_chunk

__all__ = ["ConvergenceStats", "measure_convergence", "convergence_scaling", "fit_nlogn"]


@dataclass(frozen=True)
class ConvergenceStats:
    """Parallel-time statistics over repeated runs of one input."""

    population: int
    trials: int
    mean_parallel_time: float
    stdev_parallel_time: float
    max_parallel_time: float
    all_converged: bool

    @property
    def per_log_n(self) -> float:
        """``mean / log2(n)`` — flat when convergence is ``Theta(n log n)``."""
        return self.mean_parallel_time / max(1.0, math.log2(self.population))


def measure_convergence(
    protocol: PopulationProtocol,
    inputs,
    trials: int = 10,
    max_steps_factor: int = 2000,
    seed: int = 0,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> ConvergenceStats:
    """Simulate ``trials`` runs to silent consensus; report parallel times.

    ``max_steps_factor * n`` interactions bound each run; runs hitting
    the bound are flagged via ``all_converged = False`` (their censored
    time still enters the statistics).  The trials are
    :func:`~repro.simulation.ensembles.run_ensemble`'s count-engine
    trials: trial ``t`` runs under ``seed + t`` whichever worker runs
    it, so ``jobs > 1`` changes the wall clock and nothing else.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    times: List[float] = []
    converged = True
    population = protocol.initial_configuration(inputs).size
    if chunk_size is None:
        chunk_size = default_chunk_size(trials, jobs)
    envelopes = run_tasks(
        _ensemble_chunk,
        [
            (protocol, inputs, start, stop, seed, max_steps_factor * population)
            for start, stop in chunk_ranges(trials, chunk_size)
        ],
        jobs=jobs,
        label="convergence",
    )
    for envelope in envelopes:
        for _, run_converged, parallel_time in envelope.value:
            times.append(parallel_time)
            converged = converged and run_converged
    return ConvergenceStats(
        population=population,
        trials=trials,
        mean_parallel_time=statistics.fmean(times),
        stdev_parallel_time=statistics.stdev(times) if len(times) > 1 else 0.0,
        max_parallel_time=max(times),
        all_converged=converged,
    )


def convergence_scaling(
    protocol: PopulationProtocol,
    input_for_size: Callable[[int], Union[int, dict]],
    sizes: Sequence[int],
    trials: int = 5,
    seed: int = 0,
    jobs: int = 1,
) -> List[ConvergenceStats]:
    """Measure convergence at several population sizes.

    ``input_for_size(n)`` maps a target population size to the input
    (e.g. ``lambda n: n`` for single-variable protocols or
    ``lambda n: {"x": 2 * n // 3, "y": n // 3}`` for majority).
    ``jobs`` parallelises the trials within each size; the per-size
    statistics are unchanged by it.
    """
    return [
        measure_convergence(protocol, input_for_size(size), trials=trials, seed=seed, jobs=jobs)
        for size in sizes
    ]


def fit_nlogn(stats: Sequence[ConvergenceStats]) -> Tuple[float, float]:
    """Least-squares fit ``parallel_time ~ c * log2(n) + d``.

    Returns ``(c, d)``.  Under the ``O(n log n)`` total-interaction
    claim the parallel time is ``O(log n)``, so ``c`` is the empirical
    constant of experiment E9.
    """
    xs = [math.log2(s.population) for s in stats]
    ys = [s.mean_parallel_time for s in stats]
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two sizes to fit")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    c = sxy / sxx if sxx else 0.0
    d = mean_y - c * mean_x
    return c, d
