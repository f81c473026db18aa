"""Exact random-scheduler simulation.

The stochastic semantics behind "parallel time": at each step an
*ordered* pair of distinct agents is chosen uniformly at random and
the (unique, for deterministic protocols) transition of their states
fires.  Parallel time is interactions divided by the population size.

Two exact samplers are provided:

* :class:`AgentListScheduler` — the textbook implementation keeping an
  explicit list of agents.  O(1) per interaction but heavy constants
  and O(population) memory; serves as the naive baseline of experiment
  E10.
* :class:`CountScheduler` — keeps only the state *counts* and samples
  the unordered state pair of the next interaction directly from the
  pair distribution (probability proportional to ``c_p * c_q`` for
  ``p != q`` and ``c_p * (c_p - 1)`` for ``p = q``).  O(|Q|^2) per
  interaction, independent of the population size — the first rung of
  the "simulation is too slow for large populations" ladder (the
  tau-leaping :mod:`repro.simulation.vectorized` is the second).

Both samplers produce identically distributed runs (chi-squared
smoke-tested in the suite) and support seeding for reproducibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

from ..core.errors import ProtocolError
from ..core.multiset import Multiset
from ..core.protocol import IndexedProtocol, PopulationProtocol
from ..obs import get_tracer, progress
from .instrumentation import Instrumentation, InstrumentationSnapshot

__all__ = ["StepOutcome", "AgentListScheduler", "CountScheduler", "SimulationResult"]

State = Hashable


@dataclass(frozen=True)
class StepOutcome:
    """One simulated interaction: the pair met and the states produced."""

    pre: Tuple[State, State]
    post: Tuple[State, State]
    changed: bool


@dataclass
class SimulationResult:
    """Outcome of :meth:`run` on either scheduler.

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
    instrumentation:
        Counters and phase timers recorded during the run (steps,
        silent-consensus checks, leap statistics for the batch
        scheduler); ``None`` for results built outside the run loops.
    """

    interactions: int
    population: int
    configuration: Multiset
    converged: bool
    instrumentation: Optional[InstrumentationSnapshot] = None

    @property
    def parallel_time(self) -> float:
        """``interactions / population`` — the standard normalisation."""
        return self.interactions / self.population


class _TransitionTable:
    """Per-unordered-pair transition lookup with uniform tie-breaking."""

    def __init__(self, protocol: PopulationProtocol):
        self.protocol = protocol
        self.table: Dict[Tuple[State, State], List[Tuple[State, State]]] = {}
        for t in protocol.transitions:
            self.table.setdefault((t.p, t.q), []).append((t.p2, t.q2))

    def outcome(self, p: State, q: State, rng: random.Random) -> Tuple[State, State]:
        key = (p, q) if str(p) <= str(q) else (q, p)
        choices = self.table.get(key)
        if choices is None:
            return (p, q)  # implicit identity transition (completeness)
        if len(choices) == 1:
            return choices[0]
        return rng.choice(choices)


class AgentListScheduler:
    """Naive exact simulation over an explicit agent list."""

    def __init__(self, protocol: PopulationProtocol, seed: Optional[int] = None):
        self.protocol = protocol
        self.table = _TransitionTable(protocol)
        self.rng = random.Random(seed)
        self.agents: List[State] = []
        self.instrumentation = Instrumentation()

    def reset(self, inputs: Union[int, Mapping, Multiset]) -> None:
        """Initialise the population to ``IC(inputs)``."""
        configuration = self.protocol.initial_configuration(inputs)
        self.agents = list(configuration.elements())
        self.rng.shuffle(self.agents)
        self.instrumentation.clear()

    @property
    def configuration(self) -> Multiset:
        return Multiset(self.agents)

    def step(self) -> StepOutcome:
        """Simulate one uniformly random interaction."""
        n = len(self.agents)
        if n < 2:
            raise ProtocolError("population must have at least two agents")
        i = self.rng.randrange(n)
        j = self.rng.randrange(n - 1)
        if j >= i:
            j += 1
        p, q = self.agents[i], self.agents[j]
        p2, q2 = self.table.outcome(p, q, self.rng)
        self.agents[i], self.agents[j] = p2, q2
        return StepOutcome(pre=(p, q), post=(p2, q2), changed=(p, q) != (p2, q2) and Multiset([p, q]) != Multiset([p2, q2]))

    def run(self, inputs, max_steps: int, stop_on_silent_consensus: bool = True) -> SimulationResult:
        """Run until silent consensus (if requested) or the step budget."""
        self.reset(inputs)
        return _run_loop(self, max_steps, stop_on_silent_consensus)


class CountScheduler:
    """Exact simulation on state counts: O(|Q|^2) per interaction."""

    def __init__(self, protocol: PopulationProtocol, seed: Optional[int] = None):
        self.protocol = protocol
        self.indexed: IndexedProtocol = protocol.indexed()
        self.table = _TransitionTable(protocol)
        self.rng = random.Random(seed)
        self.counts: List[int] = [0] * self.indexed.n
        self.instrumentation = Instrumentation()

    def reset(self, inputs: Union[int, Mapping, Multiset]) -> None:
        """Initialise the population to ``IC(inputs)``."""
        self.counts = list(self.indexed.initial_counts(inputs))
        self.instrumentation.clear()

    @property
    def configuration(self) -> Multiset:
        return self.indexed.decode(self.counts)

    @property
    def population(self) -> int:
        return sum(self.counts)

    def step(self) -> StepOutcome:
        """Simulate one uniformly random interaction via pair weights."""
        counts = self.counts
        states = self.indexed.states
        n = sum(counts)
        if n < 2:
            raise ProtocolError("population must have at least two agents")
        # sample the unordered pair of *states* involved
        total_weight = n * (n - 1)  # ordered pairs
        pick = self.rng.randrange(total_weight)
        p_index = q_index = -1
        cumulative = 0
        for i, ci in enumerate(counts):
            if ci == 0:
                continue
            # ordered pairs with first agent in state i
            row = ci * (n - 1)
            if pick < cumulative + row:
                p_index = i
                within = pick - cumulative
                # second agent: among the remaining n-1 agents
                second = within % (n - 1)
                # walk the counts, with state i reduced by one
                running = 0
                for j, cj in enumerate(counts):
                    avail = cj - (1 if j == i else 0)
                    if second < running + avail:
                        q_index = j
                        break
                    running += avail
                break
            cumulative += row
        assert p_index >= 0 and q_index >= 0

        p, q = states[p_index], states[q_index]
        p2, q2 = self.table.outcome(p, q, self.rng)
        counts[p_index] -= 1
        counts[q_index] -= 1
        counts[self.indexed.index[p2]] += 1
        counts[self.indexed.index[q2]] += 1
        return StepOutcome(pre=(p, q), post=(p2, q2), changed=Multiset([p, q]) != Multiset([p2, q2]))

    def run(self, inputs, max_steps: int, stop_on_silent_consensus: bool = True) -> SimulationResult:
        """Run until silent consensus (if requested) or the step budget."""
        self.reset(inputs)
        return _run_loop(self, max_steps, stop_on_silent_consensus)


def _is_silent_consensus(protocol: PopulationProtocol, configuration: Multiset) -> bool:
    """Silent (no transition changes anything) and output defined."""
    if protocol.output_of(configuration) is None:
        return False
    for t in protocol.transitions:
        if not t.is_silent and t.enabled_in(configuration) and not t.displacement.is_zero:
            return False
    return True


def _run_loop(scheduler, max_steps: int, stop_on_silent_consensus: bool) -> SimulationResult:
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    protocol = scheduler.protocol
    population = (
        scheduler.population if isinstance(scheduler, CountScheduler) else len(scheduler.agents)
    )
    check_every = max(1, population)  # silence checks are O(|T|); amortise
    instrumentation = scheduler.instrumentation
    silent_checks = 0
    interactions = 0
    converged = False
    # Observability rides the silent-check cadence (one tick per
    # `check_every` interactions), never the per-interaction hot path.
    meter = progress(
        "simulate", lambda: {"interactions": interactions, "population": population}
    )
    with instrumentation.phase("run"), get_tracer().span(
        "simulate.run",
        scheduler=type(scheduler).__name__,
        population=population,
        max_steps=max_steps,
    ) as span:
        while interactions < max_steps:
            if stop_on_silent_consensus and interactions % check_every == 0:
                silent_checks += 1
                meter.tick(check_every)
                if _is_silent_consensus(protocol, scheduler.configuration):
                    converged = True
                    break
            scheduler.step()
            interactions += 1
        else:
            if stop_on_silent_consensus:
                silent_checks += 1
                if _is_silent_consensus(protocol, scheduler.configuration):
                    converged = True
        meter.finish()
        span.add("interactions", interactions)
        span.add("silent_checks", silent_checks)
        span.set(converged=converged)
    instrumentation.add("interactions", interactions)
    instrumentation.add("silent_checks", silent_checks)
    return SimulationResult(
        interactions=interactions,
        population=population,
        configuration=scheduler.configuration,
        converged=converged,
        instrumentation=instrumentation.snapshot(),
    )
