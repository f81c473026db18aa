"""Petri nets / Vector Addition Systems: the general substrate.

A thin front end over the protocol engines: a net's dense view
(:meth:`PetriNet.indexed`) runs on the reachability graph, the
Karp–Miller frontier and the invariant kernel of
:mod:`repro.analysis.invariants`.
"""

from .analysis import is_p_invariant, marking_value, p_invariants, t_invariants
from .model import NetTransition, PetriNet, from_protocol
from .reachability import (
    OMEGA,
    is_bounded,
    is_coverable,
    karp_miller,
    place_bounds,
    reachable_markings,
)

__all__ = [
    "NetTransition",
    "PetriNet",
    "from_protocol",
    "OMEGA",
    "reachable_markings",
    "karp_miller",
    "is_coverable",
    "is_bounded",
    "place_bounds",
    "p_invariants",
    "is_p_invariant",
    "t_invariants",
    "marking_value",
]
