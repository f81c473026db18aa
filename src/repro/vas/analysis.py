"""Structural analysis of Petri nets: P- and T-invariants.

* **P-invariants** (place invariants): weights ``w`` over places with
  ``w . delta_t = 0`` for every transition — weighted token counts
  conserved by every firing.  These are the functions of
  :mod:`repro.analysis.invariants` under their net names
  (:func:`p_invariants` is ``invariant_basis``, :func:`is_p_invariant`
  is ``is_invariant``, :func:`marking_value` is ``conserved_value``):
  one exact rational left-kernel over the dense view, protocol or
  net.  Population protocols always have the all-ones P-invariant;
  general nets may have none.
* **T-invariants**: natural firing-count vectors with zero net effect
  (Hilbert basis of ``C . x = 0`` for the incidence matrix ``C``),
  the cycles of the net at the Parikh level.

Both notions feed standard boundedness/liveness arguments; the tests
exercise them on protocol nets and on non-conservative hand-built
nets.
"""

from __future__ import annotations

from typing import List

from ..analysis.invariants import conserved_value as marking_value
from ..analysis.invariants import invariant_basis as p_invariants
from ..analysis.invariants import is_invariant as is_p_invariant
from ..core.multiset import Multiset
from ..diophantine.pottier import solve_equalities
from .model import PetriNet

__all__ = ["p_invariants", "is_p_invariant", "t_invariants", "marking_value"]


def t_invariants(net: PetriNet, frontier_budget: int = 2_000_000) -> List[Multiset]:
    """Minimal non-zero T-invariants (Hilbert basis of ``C x = 0``).

    Returned as multisets over transition *names*.
    """
    matrix = net.incidence_matrix()
    if not matrix:
        matrix = [[0] * net.num_transitions]
    basis = solve_equalities(matrix, frontier_budget=frontier_budget)
    return [
        Multiset({t.name: c for t, c in zip(net.transitions, vector) if c})
        for vector in basis
    ]
