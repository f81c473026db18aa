"""Ensemble simulation: verdict probabilities over many seeded runs.

For protocols whose convergence is slow (the 4-state majority on
narrow margins) a single run within a step budget is uninformative;
what one wants is the *distribution*: with what probability has the
population reached the correct silent consensus by parallel time
``t``?  Ensembles estimate exactly that:

* :func:`run_ensemble` — ``trials`` independent seeded runs with a
  common budget, tallied into a :class:`EnsembleResult`;
* :class:`EnsembleResult` — convergence rate, verdict distribution,
  parallel-time quantiles, and a Wilson confidence interval on the
  probability of the expected verdict.

Two engines produce the same statistics:

* ``engine="count"`` (default) — the exact per-event
  :class:`~repro.simulation.scheduler.CountScheduler`, one seeded run
  per trial, optionally fanned out over a process pool (``jobs``);
* ``engine="vector"`` — the struct-of-arrays
  :class:`~repro.simulation.vectorized.VectorEnsembleScheduler`, which
  steps the whole trial batch simultaneously with batched numpy draws
  (tau-leap timing approximation, exact invariants).  Orders of
  magnitude faster at large populations; runs in-process, so ``jobs``
  is ignored.

Used by the examples for the majority margin study and by the tests
as a statistical cross-check between simulators.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.protocol import PopulationProtocol
from ..parallel import TaskEnvelope, chunk_ranges, default_chunk_size, run_tasks
from .scheduler import CountScheduler

__all__ = ["EnsembleResult", "run_ensemble", "ENSEMBLE_ENGINES"]

ENSEMBLE_ENGINES = ("count", "vector")


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregated outcome of an ensemble of seeded runs."""

    trials: int
    converged: int
    verdicts: Dict[Optional[int], int]
    parallel_times: Tuple[float, ...]

    @property
    def convergence_rate(self) -> float:
        """Fraction of runs reaching silent consensus within budget."""
        return self.converged / self.trials if self.trials else 0.0

    def verdict_probability(self, verdict: Optional[int]) -> float:
        """Empirical probability of ending with the given verdict."""
        return self.verdicts.get(verdict, 0) / self.trials if self.trials else 0.0

    def wilson_interval(self, verdict: int, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score interval for ``P(final verdict = verdict)``."""
        n = self.trials
        if n == 0:
            return (0.0, 1.0)
        p = self.verdict_probability(verdict)
        denominator = 1 + z * z / n
        centre = (p + z * z / (2 * n)) / denominator
        margin = (z / denominator) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        return (max(0.0, centre - margin), min(1.0, centre + margin))

    def time_quantile(self, q: float) -> float:
        """Parallel-time quantile over the *converged* runs."""
        if not self.parallel_times:
            return math.inf
        ordered = sorted(self.parallel_times)
        position = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[position]

    def summary(self) -> str:
        """One-paragraph digest for console output."""
        lines = [
            f"{self.trials} runs, {self.converged} converged "
            f"({100 * self.convergence_rate:.0f}%)",
        ]
        for verdict in sorted(self.verdicts, key=str):
            lines.append(
                f"  verdict {verdict}: {self.verdicts[verdict]} runs "
                f"({100 * self.verdict_probability(verdict):.0f}%)"
            )
        if self.parallel_times:
            lines.append(
                f"  parallel time (converged runs): median {self.time_quantile(0.5):.1f}, "
                f"p90 {self.time_quantile(0.9):.1f}"
            )
        return "\n".join(lines)


def _ensemble_chunk(task: TaskEnvelope) -> List[Tuple[Optional[int], bool, float]]:
    """Run one contiguous block of trials; per-trial rows in trial order.

    A row is ``(verdict, converged, parallel_time)``.  Trial ``t``
    always runs under ``seed + t`` regardless of which worker executes
    the block, so the merged ensemble is bit-identical for every
    ``jobs``/``chunk_size`` combination.  This is the one seeding rule
    of the count-engine sweeps: ``run_ensemble`` and
    ``measure_convergence`` both run their trials here.
    """
    protocol, inputs, start, stop, seed, budget = task.payload
    rows = []
    for trial in range(start, stop):
        scheduler = CountScheduler(protocol, seed=seed + trial)
        result = scheduler.run(inputs, max_steps=budget)
        rows.append(
            (protocol.output_of(result.configuration), result.converged, result.parallel_time)
        )
    return rows


def _run_vector_ensemble(
    protocol: PopulationProtocol,
    inputs,
    trials: int,
    max_parallel_time: float,
    seed: int,
) -> EnsembleResult:
    """The ``engine="vector"`` path: one scheduler, the whole batch."""
    from .vectorized import VectorEnsembleScheduler

    scheduler = VectorEnsembleScheduler(protocol, trials=trials, seed=seed)
    run = scheduler.run(inputs, max_parallel_time=max_parallel_time)
    verdicts: Dict[Optional[int], int] = {}
    times: List[float] = []
    for trial, verdict in enumerate(run.verdicts):
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        if run.converged[trial]:
            times.append(float(run.parallel_times[trial]))
    return EnsembleResult(
        trials=trials,
        converged=int(run.converged.sum()),
        verdicts=verdicts,
        parallel_times=tuple(times),
    )


def run_ensemble(
    protocol: PopulationProtocol,
    inputs,
    trials: int = 50,
    max_parallel_time: float = 500.0,
    seed: int = 0,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    engine: str = "count",
) -> EnsembleResult:
    """Run ``trials`` independent seeded simulations and aggregate.

    Non-converged runs are tallied under their (possibly ``None``)
    final-output verdict but excluded from the time quantiles.
    ``jobs > 1`` distributes trial chunks over a process pool; trial
    seeds stay ``seed + trial``, so the aggregate is identical for any
    worker count.

    ``engine="vector"`` switches to the vectorised tau-leap engine
    (see the module docstring): dramatically faster at large
    populations, statistically equivalent, and deterministic for a
    fixed ``seed`` — but a different sampler consuming one RNG stream,
    so its trajectories are not bit-matched to the count engine's.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if engine not in ENSEMBLE_ENGINES:
        raise ValueError(
            f"unknown ensemble engine {engine!r} (known: {', '.join(ENSEMBLE_ENGINES)})"
        )
    if not (math.isfinite(max_parallel_time) and max_parallel_time > 0):
        raise ValueError(
            f"max_parallel_time must be positive and finite, got {max_parallel_time}"
        )
    if engine == "vector":
        return _run_vector_ensemble(protocol, inputs, trials, max_parallel_time, seed)
    verdicts: Dict[Optional[int], int] = {}
    times: List[float] = []
    converged = 0
    population = protocol.initial_configuration(inputs).size
    # Ceil, not truncate: a positive time budget must simulate at least
    # one interaction (the same rule as the vector engine's run()).
    budget = max(1, math.ceil(max_parallel_time * population))
    if chunk_size is None:
        chunk_size = default_chunk_size(trials, jobs)
    envelopes = run_tasks(
        _ensemble_chunk,
        [
            (protocol, inputs, start, stop, seed, budget)
            for start, stop in chunk_ranges(trials, chunk_size)
        ],
        jobs=jobs,
        label="ensemble",
    )
    for envelope in envelopes:
        for verdict, trial_converged, parallel_time in envelope.value:
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if trial_converged:
                converged += 1
                times.append(parallel_time)
    return EnsembleResult(
        trials=trials,
        converged=converged,
        verdicts=verdicts,
        parallel_times=tuple(times),
    )
