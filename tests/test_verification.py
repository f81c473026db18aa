"""Tests for the exact verifier (bottom-SCC consensus criterion)."""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro import binary_threshold, counting, flat_threshold, verify_protocol
from repro.analysis import ConvergenceClass, InputClassification, classify_input
from repro.analysis.verification import Counterexample, all_inputs, verify_input
from repro.bounds.enumeration import (
    all_deterministic_protocols,
    count_deterministic_protocols,
    protocol_at,
)
from repro.cli import main
from repro.core.errors import VerificationError
from repro.core.multiset import Multiset
from repro.core.parser import parse_predicate
from repro.core.predicates import majority
from repro.core.semantics import fire
from repro.protocols import approximate_majority
from repro.protocols.builders import ProtocolBuilder
from repro.protocols.majority import majority_protocol
from repro.reachability.graph import ReachabilityGraph


class TestAllInputs:
    def test_single_variable(self):
        inputs = list(all_inputs(("x",), 4))
        assert inputs == [Multiset({"x": s}) for s in (2, 3, 4)]

    def test_two_variables_counts(self):
        inputs = list(all_inputs(("x", "y"), 3))
        # sizes 2 and 3: C(2+1,1)=3 and C(3+1,1)=4
        assert len(inputs) == 7

    def test_min_size(self):
        inputs = list(all_inputs(("x",), 3, min_size=1))
        assert Multiset({"x": 1}) in inputs


class TestVerifyInput:
    def test_accepting_input(self, threshold4):
        assert verify_input(threshold4, 4, expected=1) is None

    def test_rejecting_input(self, threshold4):
        assert verify_input(threshold4, 3, expected=0) is None

    def test_wrong_expectation_produces_counterexample(self, threshold4):
        ce = verify_input(threshold4, 4, expected=0)
        assert isinstance(ce, Counterexample)
        assert ce.expected == 0
        assert ce.bottom_scc
        assert "output" in ce.reason

    def test_counterexample_configurations_decoded(self, threshold4):
        ce = verify_input(threshold4, 5, expected=0)
        assert all(isinstance(c, Multiset) for c in ce.bottom_scc)


class TestVerifyProtocol:
    def test_report_fields(self, threshold4):
        report = verify_protocol(threshold4, counting(4), max_input_size=6)
        assert report.ok
        assert report.inputs_checked == 5  # sizes 2..6
        assert report.protocol_name == threshold4.name
        assert "x >= 4" in report.predicate

    def test_raise_on_failure(self, threshold4):
        report = verify_protocol(threshold4, counting(5), max_input_size=6)
        assert not report.ok
        with pytest.raises(VerificationError):
            report.raise_on_failure()

    def test_raise_on_success_passthrough(self, threshold4):
        report = verify_protocol(threshold4, counting(4), max_input_size=5)
        assert report.raise_on_failure() is report

    def test_stops_at_first_counterexample(self, threshold4):
        report = verify_protocol(threshold4, counting(2), max_input_size=10)
        assert not report.ok
        assert report.inputs_checked < 9

    def test_multivariable(self, majority):
        from repro.core.predicates import majority as majority_predicate

        report = verify_protocol(majority, majority_predicate(), max_input_size=6)
        assert report.ok

    @pytest.mark.parametrize("eta,checked", [(4, 5), (5, 3)])
    def test_largest_graph_is_the_biggest_explored(self, threshold4, eta, checked):
        """Regression: largest_graph was never updated and always read 0."""
        report = verify_protocol(threshold4, counting(eta), max_input_size=6)
        assert report.inputs_checked == checked  # eta=5 fails on input 4
        indexed = threshold4.indexed()
        sizes = [
            len(ReachabilityGraph.from_roots(
                threshold4, [indexed.encode(threshold4.initial_configuration(i))]
            ))
            for i in range(2, 2 + checked)
        ]
        assert report.largest_graph == max(sizes) > 0


class TestBrokenProtocolsAreCaught:
    def test_never_converging_protocol(self):
        """A protocol oscillating forever: bottom SCC is not a consensus."""
        protocol = (
            ProtocolBuilder("oscillator")
            .state("p", output=0)
            .state("q", output=1)
            .rule("p", "p", "p", "q")
            .rule("p", "q", "p", "p")
            .input("x", "p")
            .build()
        )
        report = verify_protocol(protocol, counting(1), max_input_size=4)
        assert not report.ok

    def test_wrong_tie_breaking(self):
        """Majority variant without the tie rule fails on x = y."""
        protocol = (
            ProtocolBuilder("no-tie-majority")
            .state("A", output=1)
            .state("B", output=0)
            .state("a", output=1)
            .state("b", output=0)
            .rule("A", "B", "a", "b")
            .rule("A", "b", "A", "a")
            .rule("B", "a", "B", "b")
            .input("x", "A")
            .input("y", "B")
            .build()
        )
        report = verify_protocol(protocol, majority(), max_input_size=4)
        assert not report.ok
        ce = report.counterexample
        assert ce.inputs["x"] == ce.inputs["y"]  # fails exactly on a tie

    def test_off_by_one_threshold(self):
        report = verify_protocol(flat_threshold(3), counting(4), max_input_size=5)
        assert not report.ok
        assert report.counterexample.inputs == Multiset({"x": 3})


class TestEmptySweep:
    def test_zero_inputs_is_an_error(self, threshold4):
        """Regression: a sweep over no input returned ``ok`` with ``inputs_checked=0``."""
        with pytest.raises(ValueError, match="sweep is empty"):
            verify_protocol(threshold4, counting(4), max_input_size=1)


def _fires(protocol, current, nxt):
    """Does one transition of ``protocol`` take ``current`` to ``nxt``?"""
    return any(
        t.enabled_in(current) and fire(current, t) == nxt for t in protocol.transitions
    )


def _bfs_distance(protocol, source, target):
    """Steps on a shortest run ``source ->* target``, searched with :func:`fire`."""
    distance = {source: 0}
    queue = deque([source])
    while queue:
        config = queue.popleft()
        if config == target:
            return distance[config]
        for t in protocol.transitions:
            if t.enabled_in(config):
                nxt = fire(config, t)
                if nxt not in distance:
                    distance[nxt] = distance[config] + 1
                    queue.append(nxt)
    return None


class TestCounterexampleTrace:
    """A counterexample's trace is a shortest run from ``IC(v)`` into its bottom SCC."""

    @staticmethod
    def _cases():
        for protocol in all_deterministic_protocols(2):
            for size in range(2, 7):
                for expected in (0, 1):
                    yield protocol, size, expected
        am = approximate_majority()
        predicate = parse_predicate("x - y >= 1")
        for inputs in all_inputs(("x", "y"), 5):
            yield am, inputs, int(predicate.evaluate(inputs))

    def test_every_trace_replays(self):
        counterexamples = 0
        for protocol, inputs, expected in self._cases():
            ce = verify_input(protocol, inputs, expected)
            if ce is None:
                continue
            counterexamples += 1
            trace = ce.trace
            assert trace[0] == protocol.initial_configuration(inputs)
            for current, nxt in zip(trace, trace[1:]):
                assert _fires(protocol, current, nxt), (protocol.name, current, nxt)
            assert trace[-1] == ce.bottom_scc[0]
            assert len(trace) - 1 == _bfs_distance(protocol, trace[0], trace[-1])
        # every two-state (protocol, size) fails for at least one expected
        # value, and approximate majority fails on some input
        assert counterexamples > 216 * 5

    def test_verify_command_prints_trace(self, capsys):
        assert main(["verify", "approx-majority", "x - y >= 1", "--max-input", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL on input (x, y)" in out
        assert "(N, Y) -> (Y, b) -> (2*Y)" in out


def reference_classify_input(protocol, inputs):
    """The classifier that built its own graph and also asked each
    singleton bottom SCC for successors."""
    indexed = protocol.indexed()
    root = indexed.encode(protocol.initial_configuration(inputs))
    graph = ReachabilityGraph.from_roots(protocol, [root])
    bottoms = graph.bottom_sccs()
    verdicts = []
    all_silent = True
    mixed = False
    largest = 0
    for component in bottoms:
        largest = max(largest, len(component))
        if len(component) > 1 or graph.successors_of(component[0]):
            all_silent = False
        outputs = {indexed.output_of(config) for config in component}
        if None in outputs or len(outputs) > 1:
            mixed = True
        else:
            verdicts.append(next(iter(outputs)))
    if mixed:
        convergence = ConvergenceClass.NO_CONSENSUS
    elif all_silent:
        convergence = ConvergenceClass.SILENT
    else:
        convergence = ConvergenceClass.LIVE_CONSENSUS
    return InputClassification(
        convergence=convergence,
        verdicts=tuple(verdicts),
        bottom_scc_count=len(bottoms),
        largest_bottom_scc=largest,
    )


class TestClassifyInputDifferential:
    """The classifier on the shared pass agrees with the reference copy."""

    @staticmethod
    def _protocols():
        yield from all_deterministic_protocols(2)
        rng = random.Random(18)
        total = count_deterministic_protocols(3)
        for _ in range(3000):
            yield protocol_at(3, rng.randrange(total))

    def test_matches_reference(self):
        classes = set()
        for protocol in self._protocols():
            for size in range(2, 7):
                result = classify_input(protocol, size)
                assert result == reference_classify_input(protocol, size), (protocol.name, size)
                classes.add(result.convergence)
        assert classes == set(ConvergenceClass)
