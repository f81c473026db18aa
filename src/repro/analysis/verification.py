"""Exact verification: does a protocol compute its predicate?

For a fixed input ``v`` the reachable configuration space is finite
(agent count is conserved), and the fairness semantics of Section 2.2
admits an exact graph-theoretic characterisation:

    Every fair execution from ``IC(v)`` converges with output ``b``
    **iff** every bottom SCC of the reachability graph rooted at
    ``IC(v)`` consists solely of configurations with output ``b``.

(A fair execution eventually enters a bottom SCC and then visits each
of its configurations infinitely often; conversely any bottom SCC is
the settling set of some fair execution.)

:func:`verify_input` performs this check for one input;
:func:`verify_protocol` sweeps all inputs up to a size bound and either
confirms the protocol's predicate or produces a counterexample
(:class:`Counterexample`) naming the offending bottom SCC.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

from ..core.errors import VerificationError
from ..core.multiset import Multiset
from ..core.predicates import Predicate
from ..core.protocol import PopulationProtocol
from ..reachability.graph import ReachabilityGraph

__all__ = ["verify_input", "verify_protocol", "Counterexample", "VerificationReport", "all_inputs"]


@dataclass(frozen=True)
class Counterexample:
    """Evidence that a protocol fails on some input.

    Attributes
    ----------
    inputs:
        The offending input multiset.
    expected:
        The predicate's truth value on the input (as 0/1).
    bottom_scc:
        One bottom SCC whose configurations do not form the expected
        consensus (decoded to multisets).
    reason:
        Human-readable diagnosis.
    """

    inputs: Multiset
    expected: int
    bottom_scc: Tuple[Multiset, ...]
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    """Result of sweeping a protocol over a family of inputs.

    ``largest_graph`` is the node count of the largest reachability
    graph explored, over every checked input (the failing one included).
    """

    protocol_name: str
    predicate: str
    inputs_checked: int
    largest_graph: int
    counterexample: Optional[Counterexample]

    @property
    def ok(self) -> bool:
        """True iff no counterexample was found."""
        return self.counterexample is None

    def raise_on_failure(self) -> "VerificationReport":
        """Return ``self`` on success; raise :class:`VerificationError` otherwise."""
        if self.counterexample is not None:
            raise VerificationError(
                f"{self.protocol_name} fails on input {self.counterexample.inputs.pretty()}: "
                f"{self.counterexample.reason}",
                input_value=self.counterexample.inputs,
                witness=self.counterexample,
            )
        return self


def verify_input(
    protocol: PopulationProtocol,
    inputs,
    expected: int,
    node_budget: int = 2_000_000,
) -> Optional[Counterexample]:
    """Check one input exactly; ``None`` means the input is handled correctly.

    ``expected`` is the predicate's value (0/1); the check is the
    bottom-SCC consensus criterion described in the module docstring.
    """
    return _check_input(protocol, inputs, expected, node_budget)[0]


def _check_input(
    protocol: PopulationProtocol, inputs, expected: int, node_budget: int
) -> Tuple[Optional[Counterexample], int]:
    """:func:`verify_input`'s verdict and the size of the graph it explored."""
    indexed = protocol.indexed()
    initial = protocol.initial_configuration(inputs)
    graph = ReachabilityGraph.from_roots(protocol, [indexed.encode(initial)], node_budget=node_budget)
    for component in graph.bottom_sccs():
        for config in component:
            if indexed.output_of(config) != expected:
                inputs_ms = inputs if isinstance(inputs, Multiset) else _coerce_input(protocol, inputs)
                sample = tuple(indexed.decode(c) for c in component[:10])
                return Counterexample(
                    inputs=inputs_ms,
                    expected=expected,
                    bottom_scc=sample,
                    reason=(
                        f"bottom SCC of size {len(component)} contains {indexed.decode(config).pretty()} "
                        f"with output {indexed.output_of(config)} != expected {expected}"
                    ),
                ), len(graph)
    return None, len(graph)


def _coerce_input(protocol: PopulationProtocol, inputs) -> Multiset:
    if isinstance(inputs, int):
        (var,) = protocol.input_mapping
        return Multiset({var: inputs})
    if isinstance(inputs, Multiset):
        return inputs
    return Multiset(dict(inputs))


def all_inputs(variables: Tuple, max_size: int, min_size: int = 2) -> Iterator[Multiset]:
    """All input multisets over ``variables`` with ``min_size <= |v| <= max_size``."""
    for size in range(min_size, max_size + 1):
        for combo in itertools.combinations_with_replacement(variables, size):
            yield Multiset(combo)


def verify_protocol(
    protocol: PopulationProtocol,
    predicate: Predicate,
    max_input_size: int,
    min_input_size: int = 2,
    node_budget: int = 2_000_000,
) -> VerificationReport:
    """Exactly verify the protocol against ``predicate`` on all small inputs.

    Sweeps every input multiset of size ``min_input_size`` to
    ``max_input_size`` over the protocol's variables.  Stops at the
    first counterexample.

    Notes
    -----
    This is *exact* for each checked input but only a bounded sweep
    overall: population protocol correctness for all inputs is
    decidable yet (far) beyond exhaustive search; the paper's own
    constructions come with inductive proofs, and the sweep serves as
    machine-checked evidence on the small instances.
    """
    largest = 0
    checked = 0
    for inputs in all_inputs(protocol.variables, max_input_size, min_input_size):
        expected = 1 if predicate.evaluate(inputs) else 0
        counterexample, size = _check_input(protocol, inputs, expected, node_budget)
        checked += 1
        largest = max(largest, size)
        if counterexample is not None:
            return VerificationReport(
                protocol_name=protocol.name,
                predicate=str(predicate),
                inputs_checked=checked,
                largest_graph=largest,
                counterexample=counterexample,
            )
    return VerificationReport(
        protocol_name=protocol.name,
        predicate=str(predicate),
        inputs_checked=checked,
        largest_graph=largest,
        counterexample=None,
    )
