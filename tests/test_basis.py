"""Tests for stable-set bases (Lemma 3.2, empirically)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from repro import (
    binary_threshold,
    double_exp_threshold,
    flat_threshold,
    leader_unary_threshold,
    leroux_leader_threshold,
)
from repro.analysis import basis as basis_module
from repro.analysis.basis import BasisElement, check_basis_element, covers, infer_basis
from repro.analysis.stable import stable_slice
from repro.bounds.constants import log2_beta
from repro.core.multiset import Multiset
from repro.obs import RecordingExporter, set_tracer
from repro.obs.tracer import Tracer
from repro.testing import protocols as random_protocols


class TestBasisElement:
    def test_contains(self):
        element = BasisElement(
            B=Multiset({"zero": 2}), S=frozenset({"zero"}), b=0, verified_depth=3
        )
        assert element.contains(Multiset({"zero": 5}))
        assert not element.contains(Multiset({"zero": 1}))
        assert not element.contains(Multiset({"zero": 2, "2^0": 1}))

    def test_norm(self):
        element = BasisElement(B=Multiset({"a": 3, "b": 1}), S=frozenset(), b=0, verified_depth=0)
        assert element.norm == 3

    def test_str(self):
        element = BasisElement(B=Multiset({"a": 1}), S=frozenset({"a"}), b=1, verified_depth=2)
        assert "B=" in str(element) and "b=1" in str(element)


class TestCheckBasisElement:
    def test_accepting_direction_is_pumpable(self, threshold4):
        # all agents accepting: adding more accepting agents stays 1-stable
        assert check_basis_element(
            threshold4, Multiset({"2^2": 2}), {"2^2"}, b=1, depth=4
        )

    def test_zero_direction_is_pumpable_for_reject(self, threshold4):
        # a terminal reject configuration plus any number of zeros stays 0-stable
        B = Multiset({"2^1": 1, "2^0": 1})
        assert check_basis_element(threshold4, B, {"zero"}, b=0, depth=4)

    def test_input_direction_not_pumpable_for_reject(self, threshold4):
        # pumping fresh input agents eventually crosses the threshold
        B = Multiset({"2^0": 2})
        assert not check_basis_element(threshold4, B, {"2^0"}, b=0, depth=4)

    def test_wrong_verdict_fails(self, threshold4):
        assert not check_basis_element(threshold4, Multiset({"2^2": 2}), {"2^2"}, b=0, depth=2)


class TestInferBasis:
    def test_infers_covering_basis_for_reject(self, threshold4):
        basis = infer_basis(threshold4, b=0, slice_sizes=[2, 3, 4])
        assert basis
        uncovered = covers(basis, threshold4, b=0, slice_sizes=[2, 3, 4])
        assert uncovered is None

    def test_infers_covering_basis_for_accept(self, threshold4):
        basis = infer_basis(threshold4, b=1, slice_sizes=[2, 3, 4])
        assert basis
        uncovered = covers(basis, threshold4, b=1, slice_sizes=[2, 3, 4])
        assert uncovered is None

    def test_generalises_beyond_inferred_sizes(self, threshold4):
        """A basis inferred from small slices covers larger slices too."""
        basis = infer_basis(threshold4, b=0, slice_sizes=[2, 3, 4], pump_depth=3)
        uncovered = covers(basis, threshold4, b=0, slice_sizes=[5, 6])
        assert uncovered is None

    def test_norms_are_tiny_compared_to_beta(self, threshold4):
        """Experiment E3's observation: empirical norms vs the paper's beta."""
        basis = infer_basis(threshold4, b=0, slice_sizes=[2, 3, 4])
        max_norm = max(element.norm for element in basis)
        # log2(beta) is factorial-sized; the empirical norm is single digits.
        assert max_norm <= 4
        assert log2_beta(threshold4.num_states) > 10**5

    def test_subsumption_pruning(self, threshold4):
        basis = infer_basis(threshold4, b=0, slice_sizes=[2, 3, 4])
        for element in basis:
            others = [o for o in basis if o is not element]
            assert not any(
                element.S <= o.S
                and (element.B - o.B).is_natural
                and (element.B - o.B).supported_on(o.S)
                for o in others
            )


class TestCovers:
    def test_reports_uncovered(self, threshold4):
        # an obviously insufficient basis
        basis = [
            BasisElement(B=Multiset({"2^2": 2}), S=frozenset({"2^2"}), b=0, verified_depth=0)
        ]
        uncovered = covers(basis, threshold4, b=0, slice_sizes=[3])
        assert uncovered is not None


class TestOutOfRangeParameters:
    """Negative pump parameters used to give quiet wrong answers."""

    def test_negative_depth_rejected(self, threshold4):
        B = Multiset({"2^0": 4})
        # 4 * 2^0 is not 0-stable: depth 0 already says so ...
        assert not check_basis_element(threshold4, B, {"2^0"}, b=0, depth=0)
        # ... and depth -1 checked no point at all, returning True.
        with pytest.raises(ValueError, match="pump depth"):
            check_basis_element(threshold4, B, {"2^0"}, b=0, depth=-1)

    def test_negative_pump_depth_rejected(self, threshold4):
        with pytest.raises(ValueError, match="pump depth"):
            infer_basis(threshold4, b=0, slice_sizes=[2, 3, 4], pump_depth=-1)

    def test_negative_cap_rejected(self, threshold4):
        with pytest.raises(ValueError, match="cap"):
            infer_basis(threshold4, b=0, slice_sizes=[2, 3, 4], cap=-1)


def reference_infer_basis(protocol, b, slice_sizes, cap=1, pump_depth=3):
    """The pairwise-prune, unmemoised ``infer_basis`` the vectorised one replaced."""
    candidates = {}
    for size in slice_sizes:
        for config in stable_slice(protocol, size).stable_multisets(b):
            support = sorted(config.support(), key=str)
            for r in range(len(support) + 1):
                for subset in itertools.combinations(support, r):
                    S = frozenset(subset)
                    B = Multiset({q: min(c, cap) if q in S else c for q, c in config.items()})
                    candidates.setdefault((B, S))
    verified = [
        BasisElement(B=B, S=S, b=b, verified_depth=pump_depth)
        for B, S in candidates
        if check_basis_element(protocol, B, S, b, pump_depth)
    ]

    def subsumes(big, small):
        difference = small.B - big.B
        return small.S <= big.S and difference.is_natural and difference.supported_on(big.S)

    return [
        element
        for index, element in enumerate(verified)
        if not any(
            subsumes(other, element)
            and not (subsumes(element, other) and index < other_index)
            for other_index, other in enumerate(verified)
            if other_index != index
        )
    ]


class TestInferBasisDifferential:
    """The vectorised prune and the shared stability memo change no answer.

    ``BasisElement`` equality compares ``(B, S, b, verified_depth)``.
    """

    PROTOCOLS = {
        "binary:4": lambda: binary_threshold(4),
        "binary:10": lambda: binary_threshold(10),
        "binary:16": lambda: binary_threshold(16),
        "flat:6": lambda: flat_threshold(6),
        "leroux-leader:1": lambda: leroux_leader_threshold(1),
        "double-exp:2": lambda: double_exp_threshold(2),
        "leader-unary:4": lambda: leader_unary_threshold(4),
    }

    @pytest.mark.parametrize("cap", [1, 2])
    @pytest.mark.parametrize("b", [0, 1])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_same_bases_in_same_order(self, name, b, cap):
        protocol = self.PROTOCOLS[name]()
        expected = reference_infer_basis(protocol, b, [2, 3, 4], cap=cap)
        assert infer_basis(protocol, b, [2, 3, 4], cap=cap) == expected

    @settings(max_examples=20, deadline=None)
    @given(random_protocols(max_states=4))
    def test_same_bases_on_random_protocols(self, protocol):
        for b, cap in itertools.product((0, 1), (1, 2)):
            expected = reference_infer_basis(protocol, b, [2, 3, 4], cap=cap)
            assert infer_basis(protocol, b, [2, 3, 4], cap=cap) == expected

    def test_each_point_explored_once(self, monkeypatch):
        seen = []
        real = basis_module.is_stable

        def spy(protocol, configuration, b, node_budget):
            seen.append(configuration)
            return real(protocol, configuration, b, node_budget=node_budget)

        monkeypatch.setattr(basis_module, "is_stable", spy)
        exporter = RecordingExporter()
        tracer = Tracer([exporter])
        previous = set_tracer(tracer)
        try:
            basis = infer_basis(leroux_leader_threshold(1), b=0, slice_sizes=[2, 3, 4])
        finally:
            tracer.close()
            set_tracer(previous)
        assert seen and len(seen) == len(set(seen))
        (span,) = [r for r in exporter.records if r["name"] == "basis.infer"]
        assert span["counters"]["points_checked"] == len(seen)
        assert span["counters"]["kept"] == len(basis)
        assert span["counters"]["candidates"] >= span["counters"]["verified"] >= len(basis)
