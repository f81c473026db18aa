"""Exact verification: does a protocol compute its predicate, and how does it settle?

For a fixed input ``v`` the reachable configuration space is finite
(agent count is conserved), and the fairness semantics of Section 2.2
admits an exact graph-theoretic characterisation:

    Every fair execution from ``IC(v)`` converges with output ``b``
    **iff** every bottom SCC of the reachability graph rooted at
    ``IC(v)`` consists solely of configurations with output ``b``.

(A fair execution eventually enters a bottom SCC and then visits each
of its configurations infinitely often; conversely any bottom SCC is
the settling set of some fair execution.)

Every per-input question reads one pass over that graph and its
bottom SCCs.  :func:`verify_input` checks one input;
:func:`verify_protocol` sweeps all inputs up to a size bound and either
confirms the protocol's predicate or produces a counterexample
(:class:`Counterexample`) naming the offending bottom SCC and a checked
shortest trace into it.  :func:`check_silence` asks whether every fair
run falls silent, and :func:`classify_input` how fair runs settle: in
terminal configurations (silent, which makes simulation stopping rules
exact), moving inside consensus bottom SCCs (live consensus), or in a
bottom SCC without uniform output (no consensus, a livelock);
:func:`is_silent_protocol` sweeps it over inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List, Optional, Tuple

from ..core.errors import VerificationError
from ..core.multiset import Multiset
from ..core.predicates import Predicate
from ..core.protocol import PopulationProtocol
from ..reachability.graph import ReachabilityGraph, path_transitions

__all__ = [
    "verify_input", "verify_protocol", "check_silence", "classify_input", "is_silent_protocol",
    "Counterexample", "VerificationReport", "ConvergenceClass", "InputClassification",
    "all_inputs", "format_trace",
]

Config = Tuple[int, ...]


@dataclass(frozen=True)
class Counterexample:
    """Evidence that a protocol fails on some input.

    Attributes
    ----------
    inputs:
        The offending input multiset.
    expected:
        The predicate's truth value on the input (as 0/1), or ``None``
        when the failure is a bottom SCC that never falls silent.
    bottom_scc:
        One offending bottom SCC (at most ten of its configurations,
        decoded to multisets).
    reason:
        Human-readable diagnosis.
    trace:
        A shortest configuration path from ``IC(inputs)`` to
        ``bottom_scc[0]``, every step checked to fire one transition.
    """

    inputs: Multiset
    expected: Optional[int]
    bottom_scc: Tuple[Multiset, ...]
    reason: str
    trace: Tuple[Multiset, ...]

    def to_dict(self) -> dict:
        return {
            "inputs": dict(sorted(self.inputs.items())),
            "expected": self.expected,
            "reason": self.reason,
            "trace": [dict(sorted(c.items())) for c in self.trace],
        }


def format_trace(trace: Iterable[Multiset]) -> str:
    """One line for a configuration path, e.g. ``(N, Y) -> (Y, b) -> (2*Y)``."""
    return " -> ".join(config.pretty() for config in trace)


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


class ConvergenceClass(Enum):
    """How fair executions from one input settle."""

    SILENT = "silent"                  # all bottom SCCs are terminal singletons
    LIVE_CONSENSUS = "live-consensus"  # bottom SCCs are consensus but keep moving
    NO_CONSENSUS = "no-consensus"      # some bottom SCC has mixed outputs


@dataclass(frozen=True)
class InputClassification:
    """Exact convergence classification of one input."""

    convergence: ConvergenceClass
    verdicts: Tuple[int, ...]
    bottom_scc_count: int
    largest_bottom_scc: int

    @property
    def verdict(self) -> Optional[int]:
        """The common verdict, or ``None`` if bottom SCCs disagree."""
        unique = set(self.verdicts)
        if len(unique) == 1:
            return next(iter(unique))
        return None


def _settle(
    protocol: PopulationProtocol, inputs, node_budget: int
) -> Tuple[ReachabilityGraph, Config, List[List[Config]]]:
    """The one per-input pass: the graph from ``IC(inputs)``, its root, its bottom SCCs."""
    root = protocol.indexed().encode(protocol.initial_configuration(inputs))
    graph = ReachabilityGraph.from_roots(protocol, [root], node_budget=node_budget)
    return graph, root, graph.bottom_sccs()


def _counterexample(
    protocol: PopulationProtocol, inputs, expected: Optional[int],
    graph: ReachabilityGraph, root: Config, component: List[Config], reason: str,
) -> Counterexample:
    """Evidence for a bad bottom SCC of ``graph``: a sample and a checked trace into it."""
    path = graph.shortest_path(root, component[0])
    path_transitions(graph.indexed, path)  # raises unless every step fires a transition
    decode = graph.indexed.decode
    return Counterexample(
        inputs=_coerce_input(protocol, inputs),
        expected=expected,
        bottom_scc=tuple(map(decode, component[:10])),
        reason=reason,
        trace=tuple(map(decode, path)),
    )


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
    graph, root, bottoms = _settle(protocol, inputs, node_budget)
    indexed = graph.indexed
    for component in bottoms:
        for config in component:
            output = indexed.output_of(config)
            if output != expected:
                reason = (
                    f"bottom SCC of size {len(component)} contains {indexed.decode(config).pretty()} "
                    f"with output {output} != expected {expected}"
                )
                ce = _counterexample(protocol, inputs, expected, graph, root, component, reason)
                return ce, len(graph)
    return None, len(graph)


def check_silence(
    protocol: PopulationProtocol, inputs, node_budget: int = 2_000_000
) -> Tuple[Optional[Counterexample], int]:
    """Does every fair run from ``IC(inputs)`` fall silent?

    Returns ``(counterexample, graph size)``; the counterexample names the
    first bottom SCC of more than one configuration (``expected=None``).
    """
    graph, root, bottoms = _settle(protocol, inputs, node_budget)
    for component in bottoms:
        if len(component) > 1:
            reason = f"bottom SCC of size {len(component)} cycles forever"
            ce = _counterexample(protocol, inputs, None, graph, root, component, reason)
            return ce, len(graph)
    return None, len(graph)


def classify_input(
    protocol: PopulationProtocol,
    inputs,
    node_budget: int = 2_000_000,
) -> InputClassification:
    """Classify how the protocol converges on one input, exactly.

    Non-silent transitions always change the configuration, so the
    graph has no self-loops and a singleton bottom SCC is a terminal
    configuration.
    """
    graph, _, bottoms = _settle(protocol, inputs, node_budget)
    outputs = [set(map(graph.indexed.output_of, component)) for component in bottoms]
    verdicts = tuple(next(iter(o)) for o in outputs if len(o) == 1 and None not in o)
    largest = max(map(len, bottoms))
    if len(verdicts) < len(bottoms):
        convergence = ConvergenceClass.NO_CONSENSUS
    elif largest == 1:
        convergence = ConvergenceClass.SILENT
    else:
        convergence = ConvergenceClass.LIVE_CONSENSUS
    return InputClassification(
        convergence=convergence,
        verdicts=verdicts,
        bottom_scc_count=len(bottoms),
        largest_bottom_scc=largest,
    )


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
    first counterexample.  Raises :class:`ValueError` when the sweep
    holds no input: a verdict over zero inputs is no verdict.

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
    if not checked:
        raise ValueError(
            f"verification sweep is empty: no input of size {min_input_size} "
            f"to {max_input_size}"
        )
    return VerificationReport(
        protocol_name=protocol.name,
        predicate=str(predicate),
        inputs_checked=checked,
        largest_graph=largest,
        counterexample=None,
    )


def is_silent_protocol(
    protocol: PopulationProtocol,
    max_input_size: int,
    min_input_size: int = 2,
    node_budget: int = 2_000_000,
) -> bool:
    """Does every checked input converge silently?

    Silent protocols admit exact local stopping rules in simulation
    (what :class:`repro.simulation.scheduler.CountScheduler` uses) —
    a ``False`` here warns that silent-consensus detection may not
    terminate even though the protocol stabilises.
    """
    for inputs in all_inputs(protocol.variables, max_input_size, min_input_size):
        result = classify_input(protocol, inputs, node_budget=node_budget)
        if result.convergence is not ConvergenceClass.SILENT:
            return False
    return True
