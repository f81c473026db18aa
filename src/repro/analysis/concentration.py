"""Reaching concentrated stable configurations (Lemma 5.5, empirically).

Lemma 5.5: from ``IC(k * n * beta)`` one can reach a stable
configuration ``B + D_a`` that is ``1/k``-concentrated in ``S``, for a
*small* basis element ``(B, S)`` — because ``|B| <= n * beta`` is a
vanishing fraction of the population.

The paper's ``beta`` is astronomically large, but the phenomenon it
protects against is tiny in practice: real protocols have stable bases
of single-digit norm, so concentration kicks in already for moderate
inputs.  This module computes, exactly:

* :func:`reachable_stable_configurations` — every stable configuration
  reachable from ``IC(a)`` (bottom-up through one reachability graph);
* :func:`best_concentration` — the reachable stable configuration that
  is most concentrated in the pumpable set ``S`` of a given basis,
  together with the achieved ``epsilon`` — the empirical Lemma 5.5.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol
from ..reachability.graph import ReachabilityGraph
from .basis import BasisElement
from .stable import stable_verdicts

__all__ = ["reachable_stable_configurations", "best_concentration", "ConcentrationWitness"]


def reachable_stable_configurations(
    protocol: PopulationProtocol,
    inputs,
    node_budget: int = 2_000_000,
) -> List[Tuple[Multiset, int]]:
    """All stable configurations reachable from ``IC(inputs)``, with verdicts.

    :func:`~repro.analysis.stable.stable_verdicts` over the forward
    closure of ``IC(inputs)``, in sorted order.
    """
    indexed = protocol.indexed()
    initial = indexed.encode(protocol.initial_configuration(inputs))
    graph = ReachabilityGraph.from_roots(protocol, [initial], node_budget=node_budget)
    return [(indexed.decode(c), b) for c, b in sorted(stable_verdicts(graph).items())]


class ConcentrationWitness:
    """A reachable stable configuration matched to a basis element.

    ``epsilon`` is the exact fraction of agents outside the element's
    pumpable set ``S``; Lemma 5.5 predicts ``epsilon <= |B| / a``.
    """

    def __init__(self, configuration: Multiset, element: BasisElement, epsilon: Fraction):
        self.configuration = configuration
        self.element = element
        self.epsilon = epsilon
        self.D_a = configuration - element.B

    def __repr__(self) -> str:
        return (
            f"ConcentrationWitness(C={self.configuration.pretty()}, "
            f"element={self.element}, epsilon={self.epsilon})"
        )


def best_concentration(
    protocol: PopulationProtocol,
    inputs,
    basis: Sequence[BasisElement],
    node_budget: int = 2_000_000,
) -> Optional[ConcentrationWitness]:
    """The most concentrated reachable stable configuration (Lemma 5.5).

    Scans every stable configuration reachable from ``IC(inputs)``,
    matches it against the basis, and returns the witness with the
    smallest ``epsilon`` (ties broken towards larger ``|D_a|``).
    Returns ``None`` when no reachable stable configuration lies in any
    basis element — a sign the basis is incomplete for this input size.
    """
    best: Optional[ConcentrationWitness] = None
    for configuration, verdict in reachable_stable_configurations(
        protocol, inputs, node_budget=node_budget
    ):
        total = configuration.size
        for element in basis:
            if element.b != verdict or not element.contains(configuration):
                continue
            outside = total - configuration.count(element.S)
            epsilon = Fraction(outside, total)
            witness = ConcentrationWitness(configuration, element, epsilon)
            if best is None or epsilon < best.epsilon:
                best = witness
    return best
