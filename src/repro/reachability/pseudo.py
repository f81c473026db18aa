"""Potentially realisable multisets of transitions (Definition 4, §5.4).

A multiset ``pi`` of transitions is *potentially realisable* if there
are an input ``i`` and a configuration ``C`` with ``IC(i) ==pi==> C``,
i.e. ``IC(i) + Delta_pi = C >= 0``.  For a leaderless protocol with the
unique input state ``x`` this is equivalent to the homogeneous system
of Diophantine inequalities

    ``sum_t pi(t) * Delta_t(q) >= 0``   for every ``q in Q \\ {x}``

(the ``x`` component can always be compensated by choosing ``i`` large
enough).  This module builds that system, decides potential
realisability, computes minimal witnesses ``(i, C)``, and — via
Pottier's algorithm — the Hilbert basis of potentially realisable
multisets used by Corollary 5.7 and Lemma 5.8.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Set, Tuple

from ..cache.decorator import cached_analysis
from ..core.errors import ProtocolError
from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol, Transition
from ..core.semantics import displacement_of
from ..diophantine.pottier import pottier_norm_bound, solve_inequalities

__all__ = [
    "input_state",
    "realisability_matrix",
    "is_potentially_realisable",
    "minimal_input_for",
    "witness_configuration",
    "realisable_basis",
    "RealisableBasisElement",
]

State = Hashable


def input_state(protocol: PopulationProtocol) -> State:
    """The unique input state ``x = I(x)`` of a single-input protocol.

    The whole of Section 5 of the paper works with leaderless protocols
    over the single variable ``x``; this helper enforces that shape.
    """
    if len(protocol.input_mapping) != 1:
        raise ProtocolError(
            f"expected a single input variable, protocol has {len(protocol.input_mapping)}"
        )
    (state,) = protocol.input_mapping.values()
    return state


def realisability_matrix(
    protocol: PopulationProtocol,
) -> Tuple[List[List[int]], Tuple[Transition, ...], Tuple[State, ...]]:
    """The Diophantine system whose solutions are the realisable multisets.

    Returns ``(matrix, transitions, row_states)`` where ``matrix`` has
    one row per state ``q != x`` and one column per (non-silent is NOT
    assumed — all transitions are columns, matching the paper's ``N^T``)
    transition, with entry ``Delta_t(q)``.  The constraint is
    ``matrix . pi >= 0``.

    Only valid for leaderless protocols: with leaders the system is
    inhomogeneous (``L(q) + Delta_pi(q) >= 0``) and Pottier's theorem
    does not apply directly — exactly why the paper's Section 5 bound
    is restricted to the leaderless case.
    """
    if not protocol.is_leaderless:
        raise ProtocolError("realisability matrix is defined for leaderless protocols only")
    x = input_state(protocol)
    transitions = protocol.transitions
    row_states = tuple(q for q in protocol.states if q != x)
    matrix = [[t.displacement[q] for t in transitions] for q in row_states]
    return matrix, transitions, row_states


def is_potentially_realisable(protocol: PopulationProtocol, pi: Multiset) -> bool:
    """Decide Definition 4 for a concrete multiset of transitions.

    For leaderless protocols: ``Delta_pi(q) >= 0`` for all ``q != x``.
    For protocols with leaders: ``L(q) + Delta_pi(q) >= 0`` for all
    ``q != x`` (the input coordinate is still free).
    """
    return _minimal_input(protocol, displacement_of(pi)) is not None


def minimal_input_for(protocol: PopulationProtocol, pi: Multiset) -> Optional[int]:
    """The least input ``i`` with ``IC(i) + Delta_pi >= 0``, or ``None``.

    ``None`` when ``pi`` is not potentially realisable at all.
    """
    return _minimal_input(protocol, displacement_of(pi))


def witness_configuration(protocol: PopulationProtocol, pi: Multiset, i: Optional[int] = None) -> Multiset:
    """The configuration ``C = IC(i) + Delta_pi`` witnessing realisability.

    Uses the minimal input when ``i`` is omitted.  Raises ``ValueError``
    for unrealisable ``pi`` or insufficient ``i``.
    """
    displacement = displacement_of(pi)
    if i is None:
        i = _minimal_input(protocol, displacement)
        if i is None:
            raise ValueError("multiset is not potentially realisable")
    return _witness(protocol, pi, displacement, i)


def _minimal_input(protocol: PopulationProtocol, displacement: Multiset) -> Optional[int]:
    """:func:`minimal_input_for`, given ``Delta_pi`` instead of ``pi``."""
    x = input_state(protocol)
    for q in protocol.states:
        if q != x and protocol.leaders[q] + displacement[q] < 0:
            return None
    return max(0, -(protocol.leaders[x] + displacement[x]))


def _witness(protocol: PopulationProtocol, pi: Multiset, displacement: Multiset, i: int) -> Multiset:
    """:func:`witness_configuration` for a given ``i``, given ``Delta_pi`` too."""
    result = protocol.leaders + Multiset.singleton(input_state(protocol), i) + displacement
    if not result.is_natural:
        raise ValueError(f"input {i} is insufficient to realise {pi.pretty()}")
    return result


class RealisableBasisElement:
    """One element of the basis of Corollary 5.7.

    Attributes
    ----------
    pi:
        The multiset of transitions (a minimal solution of the system).
    input_size:
        The minimal ``i`` with ``IC(i) ==pi==> configuration``.
    configuration:
        The witness ``C = IC(i) + Delta_pi``.
    """

    def __init__(self, protocol: PopulationProtocol, pi: Multiset):
        self.pi = pi
        displacement = displacement_of(pi)
        i = _minimal_input(protocol, displacement)
        if i is None:
            raise ValueError(f"{pi.pretty()} is not potentially realisable")
        self.input_size = i
        self.configuration = _witness(protocol, pi, displacement, i)

    @property
    def size(self) -> int:
        """``|pi|`` — bounded by ``xi / 2`` per Corollary 5.7."""
        return self.pi.size

    def supported_on(self, states: Set[State]) -> bool:
        """Is the witness configuration 0-concentrated on ``states``?"""
        return self.configuration.supported_on(states)

    def __repr__(self) -> str:
        return (
            f"RealisableBasisElement(|pi|={self.size}, i={self.input_size}, "
            f"C={self.configuration.pretty()})"
        )


def _basis_params(arguments):
    return {"frontier_budget": int(arguments["frontier_budget"])}


def _basis_encode(basis, protocol: PopulationProtocol):
    # One dense count vector over the protocol's transition order per
    # element; input_size and configuration are cheap recomputations.
    return {
        "solutions": [
            [element.pi[t] for t in protocol.transitions] for element in basis
        ]
    }


def _basis_decode(payload, protocol: PopulationProtocol):
    transitions = protocol.transitions
    basis = []
    for counts in payload["solutions"]:
        if len(counts) != len(transitions):
            raise ValueError("solution width does not match the transition count")
        pi = Multiset({t: int(c) for t, c in zip(transitions, counts) if c})
        basis.append(RealisableBasisElement(protocol, pi))
    return basis


@cached_analysis(
    "pottier.realisable_basis",
    params=_basis_params,
    encode=_basis_encode,
    decode=_basis_decode,
)
def realisable_basis(
    protocol: PopulationProtocol,
    frontier_budget: int = 2_000_000,
) -> List[RealisableBasisElement]:
    """The Hilbert basis of potentially realisable multisets (Cor. 5.7).

    Every potentially realisable multiset is a sum of elements of the
    returned basis, and every element satisfies the Pottier bound
    ``|pi| <= xi / 2`` (checked empirically by experiment E5).

    Protocols whose state set is ``{x}`` only (no other states) have no
    constraints; the basis is then the unit multiset of each transition.
    Memoised through :mod:`repro.cache` when the active store is on.
    """
    matrix, transitions, row_states = realisability_matrix(protocol)
    if not row_states:
        return [
            RealisableBasisElement(protocol, Multiset({t: 1}))
            for t in transitions
        ]
    solutions = solve_inequalities(matrix, frontier_budget=frontier_budget)
    basis = []
    for solution in solutions:
        pi = Multiset({t: c for t, c in zip(transitions, solution) if c})
        basis.append(RealisableBasisElement(protocol, pi))
    return basis
