"""Tests for Karp-Miller coverability and backward coverability."""

from __future__ import annotations

import pytest

from repro import binary_threshold, flat_threshold
from repro.core.errors import ConfigurationError
from repro.core.multiset import Multiset
from repro.protocols.builders import ProtocolBuilder
from repro.reachability.coverability import (
    OMEGA,
    backward_coverability_basis,
    is_coverable_from,
    karp_miller,
    minimal_coverers,
)


def epidemic():
    """T spreads: u,u -> u,T is impossible; here u,T -> T,T after seed."""
    return (
        ProtocolBuilder("epidemic")
        .state("u", output=0)
        .state("T", output=1)
        .rule("u", "u", "u", "T")
        .rule("u", "T", "T", "T")
        .input("x", "u")
        .build()
    )


class TestKarpMiller:
    def test_omega_root_covers_everything_reachable(self, threshold4):
        indexed = threshold4.indexed()
        root = tuple(OMEGA if s == "2^0" else 0 for s in indexed.states)
        tree = karp_miller(threshold4, [root])
        # with unboundedly many inputs, every state is coverable
        for state in indexed.states:
            target = tuple(1 if s == state else 0 for s in indexed.states)
            assert tree.covers(target), state

    def test_concrete_root_coverability(self, threshold4):
        indexed = threshold4.indexed()
        root = indexed.initial_counts(4)
        accept = tuple(1 if s == "2^2" else 0 for s in indexed.states)
        assert is_coverable_from(threshold4, root, accept)

    def test_concrete_root_uncoverable(self, threshold4):
        indexed = threshold4.indexed()
        root = indexed.initial_counts(3)
        accept = tuple(1 if s == "2^2" else 0 for s in indexed.states)
        assert not is_coverable_from(threshold4, root, accept)

    def test_omega_acceleration_found(self):
        protocol = epidemic()
        indexed = protocol.indexed()
        root = tuple(OMEGA if s == "u" else 0 for s in indexed.states)
        tree = karp_miller(protocol, [root])
        t_index = indexed.index["T"]
        assert not tree.place_bounded(t_index)

    def test_covers_multiset(self, threshold4):
        indexed = threshold4.indexed()
        tree = karp_miller(threshold4, [indexed.initial_counts(4)])
        assert tree.covers_multiset(Multiset({"2^1": 2}))

    def test_covers_multiset_rejects_unknown_states(self, threshold4):
        # regression: the unknown state was dropped and the query answered True
        tree = karp_miller(threshold4, [threshold4.indexed().initial_counts(3)])
        with pytest.raises(ConfigurationError):
            tree.covers_multiset(Multiset({"nosuch": 3}))

    def test_bounded_place(self):
        """In the epidemic from a finite root all places stay bounded."""
        protocol = epidemic()
        indexed = protocol.indexed()
        tree = karp_miller(protocol, [indexed.initial_counts(3)])
        assert tree.place_bounded(indexed.index["u"])
        assert tree.place_bounded(indexed.index["T"])


class TestBackwardCoverability:
    def test_basis_is_minimal_antichain(self, threshold4):
        indexed = threshold4.indexed()
        target = tuple(1 if s == "2^2" else 0 for s in indexed.states)
        basis = backward_coverability_basis(threshold4, target)
        for a in basis:
            for b in basis:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))

    def test_agrees_with_forward_exploration(self, threshold4):
        """Backward basis membership == forward coverability (small inputs)."""
        indexed = threshold4.indexed()
        target = tuple(1 if s == "2^2" else 0 for s in indexed.states)
        basis = backward_coverability_basis(threshold4, target)

        def covered_by_basis(config):
            return any(all(b <= c for b, c in zip(base, config)) for base in basis)

        for i in range(2, 7):
            root = indexed.initial_counts(i)
            assert covered_by_basis(root) == is_coverable_from(threshold4, root, target), i

    def test_minimal_coverers_threshold(self, threshold4):
        coverers = minimal_coverers(threshold4, "2^2")
        # IC(4) = 4 agents in 2^0 must be among the covered configurations
        four = Multiset({"2^0": 4})
        assert any(c <= four for c in coverers)
        # while 3 agents are not
        three = Multiset({"2^0": 3})
        assert not any(c <= three for c in coverers)

    def test_target_itself_in_upward_closure(self, threshold4):
        indexed = threshold4.indexed()
        target = tuple(2 if s == "zero" else 0 for s in indexed.states)
        basis = backward_coverability_basis(threshold4, target)
        assert any(all(b <= t for b, t in zip(base, target)) for base in basis)


# ------------------------------------------------------------------ properties
#
# Hypothesis-driven laws for the basis machinery and the coverability
# relation itself.  These are the algebraic half of the differential
# harness in test_coverability_sharded.py: that file pins *strategies*
# against each other, this one pins the answers against the maths.

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import SearchBudgetExceeded
from repro.reachability.coverability import _minimise
from repro.testing import protocols as random_protocols


def _vectors(data):
    width = data.draw(st.integers(1, 4))
    return data.draw(
        st.lists(
            st.tuples(*[st.integers(0, 4) for _ in range(width)]),
            min_size=1,
            max_size=12,
        )
    )


def _dominates(a, b):
    return all(x <= y for x, y in zip(a, b))


class TestMinimiseProperties:
    @given(data=st.data())
    def test_antichain(self, data):
        minimal = _minimise(_vectors(data))
        for a in minimal:
            for b in minimal:
                if a != b:
                    assert not _dominates(a, b)

    @given(data=st.data())
    def test_every_input_covered(self, data):
        vectors = _vectors(data)
        minimal = _minimise(vectors)
        # every input vector sits in the upward closure of the basis
        for v in vectors:
            assert any(_dominates(m, v) for m in minimal)

    @given(data=st.data())
    def test_subset_and_idempotent(self, data):
        vectors = _vectors(data)
        minimal = _minimise(vectors)
        assert set(minimal) <= set(vectors)
        assert set(_minimise(minimal)) == set(minimal)


class TestCoverabilityLaws:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_minimal_coverers_antichain(self, data):
        protocol = data.draw(random_protocols(max_states=3))
        state = data.draw(st.sampled_from(protocol.states))
        try:
            coverers = minimal_coverers(protocol, state)
        except SearchBudgetExceeded:
            assume(False)
        for a in coverers:
            for b in coverers:
                if a != b:
                    assert not a <= b

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_coverability_monotone_under_extension(self, data):
        """Adding agents never destroys coverability: extra agents can
        idle while the witnessing firing sequence runs unchanged."""
        protocol = data.draw(random_protocols(max_states=3))
        indexed = protocol.indexed()
        state = data.draw(st.sampled_from(protocol.states))
        target = tuple(1 if s == state else 0 for s in indexed.states)
        small = indexed.initial_counts(data.draw(st.integers(2, 4)))
        extra = data.draw(
            st.tuples(*[st.integers(0, 2) for _ in range(indexed.n)])
        )
        big = tuple(a + b for a, b in zip(small, extra))
        # The engine expands each configuration once, so the node
        # budget bounds the work; verdict equivalence with the classic
        # walk is pinned by the differential suite, so the law transfers.
        try:
            covered_small = is_coverable_from(protocol, small, target, node_budget=5_000)
            if not covered_small:
                return
            covered_big = is_coverable_from(protocol, big, target, node_budget=5_000)
        except SearchBudgetExceeded:
            assume(False)
        assert covered_big
