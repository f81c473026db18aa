"""Exact expected convergence time via Markov-chain analysis.

Under the uniform random scheduler a population protocol on a fixed
input is a finite Markov chain over configurations: from ``C`` the
ordered agent pair ``(p, q)`` is drawn with probability
``C(p) (C(q) - [p = q]) / (|C| (|C| - 1))`` and the corresponding
transition fires (pairs without a non-silent transition loop on ``C``).

For small populations the *expected number of interactions until
stabilisation* — first entry into a configuration from which the
verdict can never change (a ``b``-stable configuration) — is the
solution of one linear system

    ``E[C] = 0``                                    for stable ``C``
    ``E[C] = 1 + sum_C' P(C -> C') E[C']``          otherwise,

solved here exactly with numpy.  This is the ground truth the
stochastic simulators are validated against, and the exact side of
experiment E9's parallel-time measurements.

Nondeterministic protocols resolve pair collisions uniformly over the
transitions sharing a precondition, matching the simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from ..core.errors import ReproError, SearchBudgetExceeded
from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol
from ..reachability.graph import ReachabilityGraph
from .stable import stable_verdicts

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ExpectedTime", "expected_convergence_time", "transition_matrix"]

Config = Tuple[int, ...]


def _pair_outcomes(protocol: PopulationProtocol):
    """Map each unordered state pair to its possible post pairs."""
    outcomes: Dict[Tuple[object, object], List[Tuple[object, object]]] = {}
    for t in protocol.transitions:
        outcomes.setdefault((t.p, t.q), []).append((t.p2, t.q2))
    return outcomes


def transition_matrix(
    protocol: PopulationProtocol,
    graph: ReachabilityGraph,
    order: List[Config],
) -> np.ndarray:
    """The one-interaction stochastic matrix over ``order``'s configurations.

    Row ``i`` gives the distribution of the configuration after one
    uniformly random interaction from ``order[i]`` (self-loops included
    for silent pairs).
    """
    import numpy as np

    indexed = graph.indexed
    outcomes = _pair_outcomes(protocol)
    index_of = {config: i for i, config in enumerate(order)}
    size = len(order)
    matrix = np.zeros((size, size), dtype=np.float64)

    for row, config in enumerate(order):
        n = sum(config)
        total = n * (n - 1)
        if total == 0:
            raise ReproError("configurations need at least two agents")
        for i, p in enumerate(indexed.states):
            if config[i] == 0:
                continue
            for j, q in enumerate(indexed.states):
                count = config[j] - (1 if i == j else 0)
                if count <= 0:
                    continue
                weight = config[i] * count / total
                key = (p, q) if str(p) <= str(q) else (q, p)
                posts = outcomes.get(key)
                if not posts:
                    matrix[row, row] += weight  # implicit identity
                    continue
                share = weight / len(posts)
                for p2, q2 in posts:
                    successor = list(config)
                    successor[i] -= 1
                    successor[j] -= 1
                    successor[indexed.index[p2]] += 1
                    successor[indexed.index[q2]] += 1
                    matrix[row, index_of[tuple(successor)]] += share
    return matrix


@dataclass(frozen=True)
class ExpectedTime:
    """Result of :func:`expected_convergence_time`.

    ``interactions`` is the exact expected number of interactions from
    the initial configuration until a stable configuration is first
    entered; ``parallel_time`` divides by the population size.
    ``per_configuration`` exposes the full solution for inspection.
    """

    interactions: float
    population: int
    per_configuration: Mapping[Multiset, float]

    @property
    def parallel_time(self) -> float:
        """``interactions / population`` — the standard normalisation."""
        return self.interactions / self.population


def expected_convergence_time(
    protocol: PopulationProtocol,
    inputs: Union[int, Mapping, Multiset],
    node_budget: int = 20_000,
) -> ExpectedTime:
    """Exact expected interactions from ``IC(inputs)`` to stabilisation.

    Builds the reachability graph, identifies the stable configurations
    (absorbing set), and solves the hitting-time linear system.  Raises
    :class:`SearchBudgetExceeded` for graphs larger than
    ``node_budget`` (the system is dense: budget configurations mean a
    budget^2 float matrix) and :class:`ReproError` when some reachable
    configuration cannot reach the stable set at all (the protocol does
    not stabilise and the expectation is infinite).
    """
    import numpy as np

    indexed = protocol.indexed()
    initial = indexed.encode(protocol.initial_configuration(inputs))
    graph = ReachabilityGraph.from_roots(protocol, [initial], node_budget=node_budget)
    order = sorted(graph.nodes)
    if len(order) > node_budget:
        raise SearchBudgetExceeded(f"{len(order)} configurations exceed budget {node_budget}")

    stable_set = set(stable_verdicts(graph))
    if not stable_set:
        raise ReproError("no stable configuration is reachable: expected time is infinite")

    # every transient configuration must reach the stable set
    can_stabilise = graph.backward_closure(stable_set)
    missing = [c for c in order if c not in can_stabilise]
    if missing:
        raise ReproError(
            f"{len(missing)} reachable configurations cannot stabilise "
            f"(e.g. {indexed.decode(missing[0]).pretty()}): expected time is infinite"
        )

    matrix = transition_matrix(protocol, graph, order)
    transient = [i for i, config in enumerate(order) if config not in stable_set]
    if not transient:
        solution = np.zeros(len(order))
    else:
        t_index = {i: k for k, i in enumerate(transient)}
        q = matrix[np.ix_(transient, transient)]
        system = np.eye(len(transient)) - q
        rhs = np.ones(len(transient))
        hitting = np.linalg.solve(system, rhs)
        solution = np.zeros(len(order))
        for i, k in t_index.items():
            solution[i] = hitting[k]

    per_config = {
        indexed.decode(config): float(solution[i]) for i, config in enumerate(order)
    }
    start = order.index(initial)
    return ExpectedTime(
        interactions=float(solution[start]),
        population=sum(initial),
        per_configuration=per_config,
    )
