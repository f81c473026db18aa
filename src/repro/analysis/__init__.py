"""Exact analyses: verification, stable sets, bases, saturation, concentration."""

from .basis import BasisElement, check_basis_element, covers, infer_basis, prove_basis_element
from .concentration import ConcentrationWitness, best_concentration, reachable_stable_configurations
from .expected_time import ExpectedTime, expected_convergence_time, transition_matrix
from .minimisation import greedy_minimise, merge_states
from ..symmetry import are_isomorphic, automorphisms, canonical_key
from .invariants import (
    conserved_value,
    explains_conservation,
    invariant_basis,
    is_invariant,
)
from .saturation import SaturationResult, TripledSequence, expanding_transition, saturation_sequence
from .stable import StableSlice, check_downward_closure, is_stable, stability_of, stable_slice
from .verification import (
    ConvergenceClass,
    Counterexample,
    InputClassification,
    VerificationReport,
    all_inputs,
    classify_input,
    is_silent_protocol,
    verify_input,
    verify_protocol,
)

__all__ = [
    "verify_input",
    "verify_protocol",
    "Counterexample",
    "VerificationReport",
    "all_inputs",
    "is_stable",
    "stability_of",
    "stable_slice",
    "StableSlice",
    "check_downward_closure",
    "BasisElement",
    "check_basis_element",
    "prove_basis_element",
    "infer_basis",
    "covers",
    "ExpectedTime",
    "expected_convergence_time",
    "transition_matrix",
    "invariant_basis",
    "is_invariant",
    "conserved_value",
    "explains_conservation",
    "ConvergenceClass",
    "InputClassification",
    "classify_input",
    "is_silent_protocol",
    "merge_states",
    "greedy_minimise",
    "are_isomorphic",
    "canonical_key",
    "automorphisms",
    "saturation_sequence",
    "SaturationResult",
    "TripledSequence",
    "expanding_transition",
    "reachable_stable_configurations",
    "best_concentration",
    "ConcentrationWitness",
]
