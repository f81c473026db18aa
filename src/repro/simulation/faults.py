"""Fault injection: protocol behaviour under crashes and corruption.

Population protocols are designed for fragile hardware (mobile
sensors, molecules); their correctness statements assume a *fixed*
population, and the interesting engineering question is what happens
when that assumption breaks.  This module injects faults into
simulated runs:

* **crash** faults remove agents (uniformly at random, or from a
  chosen state) at scheduled interaction counts;
* **corruption** faults reset agents to an arbitrary state (transient
  bit-flips, adversarial injection).

The runner reports the verdict with and without faults; the test suite
uses it to demonstrate both robustness (threshold protocols stay
correct when crashes don't cross the threshold; epidemics survive any
minority crash) and fragility (crashing the only accepting agent
before the epidemic starts flips the outcome) — the trade-offs behind
the self-stabilisation literature.

Faults change the population size, so the paper's predicates must be
re-read against the *surviving* input; :func:`run_with_faults` returns
enough information to do that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple, Union

from ..core.errors import ProtocolError
from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol
from .scheduler import CountScheduler, _is_silent_consensus

__all__ = ["Fault", "crash", "corrupt", "FaultyRunResult", "run_with_faults"]

State = Hashable


@dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    Attributes
    ----------
    at_interaction:
        Fires just before this interaction index.
    kind:
        ``"crash"`` (remove agents) or ``"corrupt"`` (reset agents).
    count:
        How many agents are affected.
    state:
        Restrict the affected agents to this state (``None``: uniform
        over all agents).
    target_state:
        For corruption: the state the affected agents are reset to.
    """

    at_interaction: int
    kind: str
    count: int = 1
    state: Optional[State] = None
    target_state: Optional[State] = None

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "corrupt"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "corrupt" and self.target_state is None:
            raise ValueError("corruption faults need a target_state")
        if self.count < 1:
            raise ValueError("fault count must be >= 1")
        if self.at_interaction < 0:
            raise ValueError(
                f"fault schedule must be non-negative, got at_interaction={self.at_interaction}"
            )


def crash(at_interaction: int, count: int = 1, state: Optional[State] = None) -> Fault:
    """A crash fault removing ``count`` agents."""
    return Fault(at_interaction=at_interaction, kind="crash", count=count, state=state)


def corrupt(
    at_interaction: int,
    target_state: State,
    count: int = 1,
    state: Optional[State] = None,
) -> Fault:
    """A corruption fault resetting ``count`` agents to ``target_state``."""
    return Fault(
        at_interaction=at_interaction,
        kind="corrupt",
        count=count,
        state=state,
        target_state=target_state,
    )


@dataclass
class FaultyRunResult:
    """Outcome of a fault-injected run.

    ``faults_skipped`` counts scheduled :class:`Fault` objects that
    never affected any agent — either no victim was ever available
    (e.g. a state-restricted fault on an empty state) or the fault was
    scheduled beyond the step budget.
    """

    configuration: Multiset
    interactions: int
    converged: bool
    faults_applied: int
    survivors: int
    verdict: Optional[int]
    faults_skipped: int = 0


def _pick_state(configuration: Multiset, restrict: Optional[State], rng: random.Random) -> Optional[State]:
    if restrict is not None:
        return restrict if configuration[restrict] > 0 else None
    total = configuration.size
    if total == 0:
        return None
    pick = rng.randrange(total)
    running = 0
    for state, count in configuration.items():
        running += count
        if pick < running:
            return state
    return None


def run_with_faults(
    protocol: PopulationProtocol,
    inputs,
    faults: Sequence[Fault],
    max_steps: int = 1_000_000,
    seed: Optional[int] = None,
) -> FaultyRunResult:
    """Simulate under the uniform scheduler with scheduled faults.

    Crashes that would leave fewer than two agents are skipped (the
    model needs interacting pairs).  A fault restricted to, or
    corrupting into, a state outside the protocol raises
    :class:`ProtocolError`, and a ``max_steps`` below 1 raises
    ``ValueError``, as in :meth:`CountScheduler.run`.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    for fault in faults:
        if fault.state is not None and fault.state not in protocol.states:
            raise ProtocolError(f"fault state {fault.state!r} is not a state")
        if fault.kind == "corrupt" and fault.target_state not in protocol.states:
            raise ProtocolError(f"corruption target {fault.target_state!r} is not a state")

    scheduler = CountScheduler(protocol, seed=seed)
    scheduler.reset(inputs)
    rng = random.Random(None if seed is None else seed + 7919)
    pending = sorted(faults, key=lambda f: f.at_interaction)
    applied = 0
    skipped = 0
    interactions = 0
    converged = False
    index = protocol.indexed().index

    def apply_due_faults() -> None:
        nonlocal applied, skipped
        while pending and pending[0].at_interaction <= interactions:
            fault = pending.pop(0)
            affected = 0
            for _ in range(fault.count):
                configuration = scheduler.configuration
                victim = _pick_state(configuration, fault.state, rng)
                if victim is None:
                    continue
                if fault.kind == "crash":
                    if configuration.size <= 2:
                        continue  # keep the model well-defined
                    scheduler.counts[index[victim]] -= 1
                else:
                    scheduler.counts[index[victim]] -= 1
                    scheduler.counts[index[fault.target_state]] += 1
                applied += 1
                affected += 1
            if affected == 0:
                skipped += 1

    while interactions < max_steps:
        apply_due_faults()
        if _is_silent_consensus(scheduler.indexed, scheduler.counts):
            if not pending:
                converged = True
                break
            # The configuration is silent but faults are still
            # scheduled: stepping would only burn no-op interactions
            # until the next fault fires.  Fast-forward the
            # interaction clock to it and apply it directly.
            next_at = pending[0].at_interaction
            if next_at >= max_steps:
                # the remaining faults lie beyond the budget: they are
                # skipped, and the population *did* reach silent consensus
                converged = True
                break
            interactions = max(interactions, next_at)
            continue
        scheduler.advance(1)
        interactions += 1

    skipped += len(pending)
    final = scheduler.configuration
    return FaultyRunResult(
        configuration=final,
        interactions=interactions,
        converged=converged,
        faults_applied=applied,
        survivors=final.size,
        verdict=protocol.output_of(final),
        faults_skipped=skipped,
    )
