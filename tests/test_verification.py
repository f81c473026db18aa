"""Tests for the exact verifier (bottom-SCC consensus criterion)."""

from __future__ import annotations

import pytest

from repro import binary_threshold, counting, flat_threshold, verify_protocol
from repro.analysis.verification import Counterexample, all_inputs, verify_input
from repro.core.errors import VerificationError
from repro.core.multiset import Multiset
from repro.core.predicates import majority
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
