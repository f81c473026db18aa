"""Tests for protocol isomorphism and symmetry detection (:mod:`repro.symmetry`).

The canonical form, the automorphisms and the cache fingerprint all come
from one class-respecting search, so comparing them with each other
proves nothing.  They are checked against :func:`brute_force_key` and
:func:`brute_force_automorphisms` instead: every one of the ``n!`` state
orderings, compared through a sorted-tuple signature, with no colour
refinement at all.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import binary_threshold, flat_threshold, majority_protocol
from repro.analysis import are_isomorphic, automorphisms, canonical_key
from repro.bounds.enumeration import (
    all_deterministic_protocols,
    count_deterministic_protocols,
    protocol_at,
)
from repro.cache import protocol_fingerprint
from repro.core.protocol import PopulationProtocol
from repro.protocols.builders import ProtocolBuilder
from repro.testing import protocols


def _brute_force_signature(protocol, order):
    index = {state: i for i, state in enumerate(order)}
    transitions = tuple(
        sorted(
            (
                tuple(sorted((index[t.p], index[t.q]))),
                tuple(sorted((index[t.p2], index[t.q2]))),
            )
            for t in protocol.transitions
        )
    )
    outputs = tuple(protocol.output[state] for state in order)
    leaders = tuple(protocol.leaders[state] for state in order)
    inputs = tuple(sorted((str(v), index[s]) for v, s in protocol.input_mapping.items()))
    return (outputs, leaders, inputs, transitions)


def brute_force_key(protocol):
    """The minimum signature over all ``n!`` state orderings."""
    return min(
        _brute_force_signature(protocol, order)
        for order in itertools.permutations(protocol.states)
    )


def brute_force_automorphisms(protocol):
    """Every renaming ``order[i] -> states[i]`` that keeps the signature."""
    base = _brute_force_signature(protocol, protocol.states)
    return {
        frozenset(zip(order, protocol.states))
        for order in itertools.permutations(protocol.states)
        if _brute_force_signature(protocol, order) == base
    }


def _relisted(protocol, states):
    """The same protocol with its state tuple listed in another order."""
    return PopulationProtocol(
        states=tuple(states),
        transitions=protocol.transitions,
        leaders=protocol.leaders,
        input_mapping=dict(protocol.input_mapping),
        output=dict(protocol.output),
        name=protocol.name,
    )


def seeded_relistings(seed=3, count=600):
    """``count`` seeded n = 3 protocols, each listed in all 6 state orders."""
    rng = random.Random(seed)
    total = count_deterministic_protocols(3)
    return [
        [_relisted(protocol, order) for order in itertools.permutations(protocol.states)]
        for protocol in (protocol_at(3, rng.randrange(total)) for _ in range(count))
    ]


def sink_twins(k):
    """``k`` interchangeable sink states: ``k!`` class-respecting orderings."""
    builder = ProtocolBuilder(f"{k}-twins").state("u", output=0).input("x", "u")
    for i in range(k):
        builder.state(f"s{i}", output=1).rule("u", "u", f"s{i}", f"s{i}")
    return builder.build()


def _assert_matches_brute_force(sample):
    keys = [canonical_key(p) for p in sample]
    oracle = [brute_force_key(p) for p in sample]
    # Equal keys exactly when the oracle's keys are equal: the pairs
    # biject the two sets of classes.
    assert len(set(zip(keys, oracle))) == len(set(keys)) == len(set(oracle))
    for protocol in sample:
        found = {frozenset(mapping.items()) for mapping in automorphisms(protocol)}
        assert found == brute_force_automorphisms(protocol), protocol.name
    return len(set(keys))


class TestIsomorphism:
    def test_protocol_isomorphic_to_renaming(self, threshold4):
        renamed = threshold4.renamed({"2^0": "unit", "zero": "ash"})
        assert are_isomorphic(threshold4, renamed)

    def test_reflexive(self, threshold4):
        assert are_isomorphic(threshold4, threshold4)

    def test_different_protocols(self):
        assert not are_isomorphic(binary_threshold(4), binary_threshold(5))

    def test_different_outputs_not_isomorphic(self, threshold4):
        from repro.protocols.combinators import negation

        assert not are_isomorphic(threshold4, negation(threshold4))

    def test_different_state_counts(self):
        assert not are_isomorphic(binary_threshold(4), flat_threshold(4))

    def test_canonical_key_is_isomorphism_invariant(self, threshold4):
        renamed = threshold4.renamed({"2^1": "pair", "2^2": "quad"})
        assert canonical_key(threshold4) == canonical_key(renamed)

    def test_too_many_states_guarded(self):
        """9! orderings is above the 8! limit."""
        with pytest.raises(ValueError, match="too many"):
            canonical_key(sink_twins(9))
        with pytest.raises(ValueError, match="too many"):
            automorphisms(sink_twins(9))

    def test_isomorphic_to_any_generated_renaming(self):
        """Property: every renaming drawn by the shared strategy is an
        isomorphism witness (same generator the cache fingerprint and
        minimisation suites use)."""
        from repro.testing import renamings

        @settings(max_examples=40, deadline=None)
        @given(st.data())
        def check(data):
            protocol = data.draw(protocols())
            mapping = data.draw(renamings(protocol))
            assert are_isomorphic(protocol, protocol.renamed(mapping))

        check()

    def test_enumeration_dedup_rate(self):
        """At n = 2 a substantial fraction of the raw enumeration is
        redundant up to isomorphism — the point of canonical keys."""
        keys = {canonical_key(p) for p in all_deterministic_protocols(2)}
        assert len(keys) < 216


class TestStateListingOrder:
    """Listing the state tuple in another order is not a new protocol.

    Regression: the canonical key took ``min`` over signatures ending
    in a ``frozenset`` of transitions, and ``<`` on sets is "proper
    subset", so the minimum depended on the order the states were
    listed in.
    """

    def test_relisted_states_are_isomorphic(self):
        p = protocol_at(3, 499047)
        q = _relisted(p, (1, 2, 0))
        assert are_isomorphic(p, q)
        assert canonical_key(p) == canonical_key(q)
        assert protocol_fingerprint(p) == protocol_fingerprint(q)

    def test_seeded_relistings_agree(self):
        for listings in seeded_relistings():
            assert len({canonical_key(p) for p in listings}) == 1
            assert len({protocol_fingerprint(p) for p in listings}) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_listing_order_never_matters(self, data):
        protocol = data.draw(protocols(max_states=4))
        order = data.draw(st.permutations(protocol.states))
        relisted = _relisted(protocol, order)
        assert canonical_key(relisted) == canonical_key(protocol)
        assert protocol_fingerprint(relisted) == protocol_fingerprint(protocol)


class TestAgainstBruteForce:
    def test_all_two_state_protocols(self):
        assert _assert_matches_brute_force(list(all_deterministic_protocols(2))) == 108

    def test_seeded_three_state_sample(self):
        sample = [p for listings in seeded_relistings(count=200) for p in listings]
        _assert_matches_brute_force(sample)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_generated_protocols(self, data):
        left = data.draw(protocols(max_states=4))
        right = data.draw(protocols(max_states=4))
        _assert_matches_brute_force([left, right])


class TestAutomorphisms:
    def test_identity_always_present(self, threshold4):
        result = automorphisms(threshold4)
        assert all(k == v for k, v in result[0].items())

    def test_symmetric_protocol(self):
        """Two interchangeable dead states yield a non-trivial symmetry."""
        protocol = (
            ProtocolBuilder("twins")
            .state("x", output=0)
            .state("a", output=1)
            .state("b", output=1)
            .rule("x", "x", "a", "b")
            .input("v", "x")
            .build()
        )
        result = automorphisms(protocol)
        assert len(result) == 2  # identity + swap(a, b)

    def test_asymmetric_protocol(self, threshold4):
        assert len(automorphisms(threshold4)) == 1

    def test_automorphisms_preserve_structure(self):
        protocol = majority_protocol()
        for mapping in automorphisms(protocol):
            renamed = protocol.renamed(mapping)
            assert are_isomorphic(protocol, renamed)

    def test_eight_interchangeable_states_are_searched(self):
        """8! orderings is the limit, and it is inclusive."""
        assert len(automorphisms(sink_twins(8))) == 40_320


class TestOneRefinementPerProtocol:
    def test_quotiented_analyze_refines_once(self, tmp_path, monkeypatch, capsys):
        """The fingerprint and the Karp–Miller engine share one search.

        ``--quotient`` is accepted and ignored: every tree canonicalises.
        """
        from repro import symmetry
        from repro.cli import main

        refined = []
        original = symmetry._refined_colors

        def spy(protocol):
            refined.append(protocol)
            return original(protocol)

        monkeypatch.setattr(symmetry, "_refined_colors", spy)
        code = main(["--cache-dir", str(tmp_path), "analyze", "flat:6", "--quotient"])
        capsys.readouterr()
        assert code == 0
        assert len(refined) == 1
