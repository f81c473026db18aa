"""Exact random-scheduler simulation.

The stochastic semantics behind "parallel time": at each step an
*ordered* pair of distinct agents is chosen uniformly at random and
the (unique, for deterministic protocols) transition of their states
fires.  Parallel time is interactions divided by the population size.

:class:`CountScheduler` is the one exact sampler.  It keeps only the
state *counts* and works on state indices: one draw among the
``n(n-1)`` ordered pairs of distinct agents, split with ``divmod`` into
the two agents, and two scans of the counts find their states.  One
table, :attr:`IndexedProtocol.pair_outcomes`, then gives the post index
pairs of the registered transitions of the ordered pair of states, or
the identity when there is none, and a nondeterministic pair picks one
of them with ``rng.choice``.  That is O(|Q|) per interaction,
independent of the population size — the first rung of the
"simulation is too slow for large populations" ladder (the tau-leaping
:mod:`repro.simulation.vectorized` is the second).

``advance(k)`` runs ``k`` interactions without reporting them, which is
what ``run`` does between two silence checks; ``step()`` runs one and
returns its :class:`StepOutcome` for the readers that need it (the
conformance harness, :func:`~repro.simulation.trace.record_trace`).
Runs are seeded for reproducibility, and the conformance harness holds
the sampler to the analytic one-step law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.errors import ProtocolError
from ..core.multiset import Multiset
from ..core.protocol import IndexedProtocol, PopulationProtocol
from ..obs import get_tracer, progress

__all__ = ["StepOutcome", "CountScheduler", "SimulationResult"]

State = Hashable


@dataclass(frozen=True)
class StepOutcome:
    """One simulated interaction: the pair met and the states produced."""

    pre: Tuple[State, State]
    post: Tuple[State, State]
    changed: bool


@dataclass
class SimulationResult:
    """Outcome of :meth:`CountScheduler.run`.

    Attributes
    ----------
    interactions:
        Number of interactions simulated.
    parallel_time:
        ``interactions / population`` (the standard notion).
    configuration:
        Final configuration (multiset over states).
    converged:
        Whether the stop condition was met (vs the step budget).
    """

    interactions: int
    population: int
    configuration: Multiset
    converged: bool

    @property
    def parallel_time(self) -> float:
        """``interactions / population`` — the standard normalisation."""
        return self.interactions / self.population


class CountScheduler:
    """Exact simulation on state counts: O(|Q|) per interaction."""

    def __init__(self, protocol: PopulationProtocol, seed: Optional[int] = None):
        self.protocol = protocol
        self.indexed: IndexedProtocol = protocol.indexed()
        self.rng = random.Random(seed)
        self.counts: List[int] = [0] * self.indexed.n

    def reset(self, inputs: Union[int, Mapping, Multiset]) -> None:
        """Initialise the population to ``IC(inputs)``."""
        self.counts = list(self.indexed.initial_counts(inputs))

    @property
    def configuration(self) -> Multiset:
        return self.indexed.decode(self.counts)

    @property
    def population(self) -> int:
        return sum(self.counts)

    def _checked_population(self) -> int:
        """The population now, which must hold two agents to interact.

        Read on every call, never cached: the fault runner crashes and
        corrupts agents by editing ``counts`` between calls.
        """
        n = self.population
        if n < 2:
            raise ProtocolError("population must have at least two agents")
        return n

    def _interact(self, n: int) -> Tuple[int, int, int, int]:
        """One uniformly random interaction among ``n`` agents, on state indices.

        Agent ``first`` of the ``n`` (ordered by state) meets agent
        ``second`` of the other ``n - 1``; each scan finds the state
        holding its agent.  Returns ``(i, j, i2, j2)``.
        """
        counts = self.counts
        first, second = divmod(self.rng.randrange(n * (n - 1)), n - 1)
        i = 0
        while first >= counts[i]:
            first -= counts[i]
            i += 1
        counts[i] -= 1
        j = 0
        while second >= counts[j]:
            second -= counts[j]
            j += 1
        counts[j] -= 1
        outcomes = self.indexed.pair_outcomes[i][j]
        i2, j2 = outcomes[0] if len(outcomes) == 1 else self.rng.choice(outcomes)
        counts[i2] += 1
        counts[j2] += 1
        return i, j, i2, j2

    def step(self) -> StepOutcome:
        """Simulate one uniformly random interaction and report it."""
        i, j, i2, j2 = self._interact(self._checked_population())
        states = self.indexed.states
        return StepOutcome(
            pre=(states[i], states[j]),
            post=(states[i2], states[j2]),
            changed=(i, j) != (i2, j2) and (i, j) != (j2, i2),
        )

    def advance(self, k: int) -> None:
        """Simulate ``k`` uniformly random interactions."""
        n = self._checked_population()
        for _ in range(k):
            self._interact(n)

    def run(self, inputs, max_steps: int) -> SimulationResult:
        """Run until silent consensus or the step budget."""
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.reset(inputs)
        indexed = self.indexed
        population = self.population
        check_every = max(1, population)  # silence checks are O(|T|); amortise
        silent_checks = 0
        interactions = 0
        # Observability rides the silent-check cadence (one tick per
        # `check_every` interactions), never the per-interaction hot path.
        meter = progress(
            "simulate", lambda: {"interactions": interactions, "population": population}
        )
        with get_tracer().span(
            "simulate.run",
            scheduler=type(self).__name__,
            population=population,
            max_steps=max_steps,
        ) as span:
            while True:
                silent_checks += 1
                if interactions < max_steps:
                    meter.tick(check_every)
                converged = _is_silent_consensus(indexed, self.counts)
                if converged or interactions == max_steps:
                    break
                chunk = min(check_every, max_steps - interactions)
                self.advance(chunk)
                interactions += chunk
            meter.finish()
            span.add("interactions", interactions)
            span.add("silent_checks", silent_checks)
            span.set(converged=converged)
        return SimulationResult(
            interactions=interactions,
            population=population,
            configuration=self.configuration,
            converged=converged,
        )


def _is_silent_consensus(indexed: IndexedProtocol, counts: Sequence[int]) -> bool:
    """Output defined and no enabled transition changes the dense configuration."""
    return indexed.output_of(counts) is not None and not any(
        indexed.enabled(counts, k) for k in indexed.non_silent
    )
