"""Linear invariants: conserved quantities of a protocol.

A *linear invariant* is a weight function ``w : Q -> Q`` (rationals)
with ``w . Delta_t = 0`` for every transition ``t`` — the weighted agent
count ``sum_q w(q) C(q)`` is then constant along every execution.
Invariants are the work-horses of protocol correctness proofs: the
binary threshold family conserves the total *encoded value*, every
protocol conserves the population (the all-ones invariant), and the
paper's pseudo-reachability arguments (Definition 4) are feasibility
questions relative to the displacement lattice these invariants
annihilate.

This module computes, exactly over the rationals:

* :func:`invariant_basis` — a basis of the left kernel of the
  displacement matrix (all linear invariants, dimension included);
* :func:`conserved_value` — evaluate an invariant on a configuration;
* :func:`is_invariant` — check a proposed weight vector;
* :func:`explains_conservation` — given source/target configurations,
  report the invariants separating them (a *proof* of unreachability
  whenever one exists).

Everything is fraction-exact (no floating point): Gaussian elimination
over :class:`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Union

from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol
from ..linalg import normalise_integer_vector, rational_null_space

if TYPE_CHECKING:  # repro.vas imports this module, never the reverse
    from ..vas.model import PetriNet

__all__ = [
    "invariant_basis",
    "is_invariant",
    "conserved_value",
    "explains_conservation",
]

State = Hashable
Weights = Dict[State, Fraction]


def invariant_basis(protocol: Union[PopulationProtocol, PetriNet]) -> List[Weights]:
    """A basis of all linear invariants of the protocol.

    For a protocol, the all-ones vector (population conservation) is
    always in the spanned space, since every transition moves exactly
    two agents to exactly two agents.  Returned weight vectors are
    normalised to coprime integers with positive leading entry.

    Anything with an ``indexed()`` dense view works: a
    :class:`~repro.vas.model.PetriNet` gets its P-invariants, which
    :mod:`repro.vas` re-exports as ``p_invariants``.
    """
    indexed = protocol.indexed()
    rows = [[Fraction(d) for d in indexed.deltas[k]] for k in indexed.non_silent]
    if not rows:
        rows = [[Fraction(0)] * indexed.n]
    kernel = rational_null_space(rows, indexed.n)
    return [
        {q: w for q, w in zip(indexed.states, normalise_integer_vector(vector))}
        for vector in kernel
    ]


def is_invariant(
    protocol: Union[PopulationProtocol, PetriNet], weights: Mapping[State, object]
) -> bool:
    """Does ``w . Delta_t = 0`` hold for every transition (protocol or net)?"""
    indexed = protocol.indexed()
    w = [Fraction(weights.get(q, 0)) for q in indexed.states]
    return all(sum(wq * d for wq, d in zip(w, delta)) == 0 for delta in indexed.deltas)


def conserved_value(weights: Mapping[State, object], configuration: Multiset) -> Fraction:
    """``sum_q w(q) * C(q)`` — constant along every execution."""
    return sum(
        (Fraction(weights.get(q, 0)) * count for q, count in configuration.items()),
        Fraction(0),
    )


def explains_conservation(
    protocol: PopulationProtocol,
    source: Multiset,
    target: Multiset,
) -> Optional[Weights]:
    """An invariant separating ``source`` from ``target``, if one exists.

    If the returned weights ``w`` satisfy
    ``w . source != w . target`` then ``target`` is *provably*
    unreachable from ``source`` (the invariant is conserved by every
    step).  ``None`` means no *linear* obstruction exists — the target
    may still be unreachable for other reasons.
    """
    for weights in invariant_basis(protocol):
        if conserved_value(weights, source) != conserved_value(weights, target):
            return weights
    return None
