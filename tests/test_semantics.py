"""Tests for operational semantics: firing, Parikh images, pseudo-firing."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import binary_threshold, flat_threshold
from repro.core.errors import TransitionNotEnabled
from repro.core.multiset import EMPTY, Multiset
from repro.core.protocol import Transition
from repro.core.semantics import (
    displacement_of,
    enabled_transitions,
    fire,
    fire_sequence,
    parikh,
    pseudo_fire,
    pseudo_reachable,
    realise_parikh,
    successors,
    try_fire,
)

T_COMBINE = Transition("u", "u", "v", "z")
T_SPREAD = Transition("v", "z", "v", "v")


class TestFire:
    def test_fire(self):
        c = Multiset({"u": 3})
        assert fire(c, T_COMBINE) == Multiset({"u": 1, "v": 1, "z": 1})

    def test_fire_not_enabled(self):
        with pytest.raises(TransitionNotEnabled):
            fire(Multiset({"u": 1}), T_COMBINE)

    def test_try_fire(self):
        assert try_fire(Multiset({"u": 1}), T_COMBINE) is None
        assert try_fire(Multiset({"u": 2}), T_COMBINE) == Multiset({"v": 1, "z": 1})

    def test_fire_preserves_size(self):
        c = Multiset({"u": 5})
        assert fire(c, T_COMBINE).size == c.size

    def test_fire_sequence(self):
        c = Multiset({"u": 4})
        result = fire_sequence(c, [T_COMBINE, T_COMBINE])
        assert result == Multiset({"v": 2, "z": 2})

    def test_fire_sequence_fails_midway(self):
        with pytest.raises(TransitionNotEnabled):
            fire_sequence(Multiset({"u": 3}), [T_COMBINE, T_COMBINE])

    def test_fire_sequence_empty(self):
        c = Multiset({"u": 2})
        assert fire_sequence(c, []) == c

    def test_monotonicity(self):
        """C --t--> C' implies C + D --t--> C' + D (the paper's key tool)."""
        c = Multiset({"u": 2})
        d = Multiset({"z": 5, "u": 1})
        fired = fire(c, T_COMBINE)
        assert fire(c + d, T_COMBINE) == fired + d


class TestEnabledAndSuccessors:
    def test_enabled_transitions(self, threshold4):
        initial = threshold4.initial_configuration(4)
        enabled = enabled_transitions(threshold4, initial)
        assert all(t.enabled_in(initial) for t in enabled)
        assert len(enabled) >= 1

    def test_successors_consistent_with_fire(self, threshold4):
        initial = threshold4.initial_configuration(4)
        for t, nxt in successors(threshold4, initial):
            assert fire(initial, t) == nxt

    def test_successors_skip_silent(self):
        p = binary_threshold(4).completed()
        initial = p.initial_configuration(4)
        for t, _ in successors(p, initial):
            assert not t.is_silent


class TestParikh:
    def test_parikh_counts(self):
        pi = parikh([T_COMBINE, T_COMBINE, T_SPREAD])
        assert pi[T_COMBINE] == 2
        assert pi[T_SPREAD] == 1

    def test_displacement_of_empty(self):
        assert displacement_of(EMPTY) == EMPTY

    def test_displacement_of_multiset(self):
        pi = Multiset({T_COMBINE: 2})
        d = displacement_of(pi)
        assert d == Multiset({"u": -4, "v": 2, "z": 2})

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    def test_displacement_of_sums_transition_displacements(self, counts):
        transitions = flat_threshold(4).transitions + (T_COMBINE, T_SPREAD)
        pi = Multiset(dict(zip(transitions, counts)))
        expected = EMPTY
        for transition, count in pi.items():
            expected = expected + count * transition.displacement
        assert displacement_of(pi) == expected

    def test_lemma_5_1_i(self):
        """If C --sigma--> C' then C ==parikh(sigma)==> C'."""
        c = Multiset({"u": 4})
        sigma = [T_COMBINE, T_COMBINE, T_SPREAD]
        fired = fire_sequence(c, sigma)
        assert pseudo_fire(c, parikh(sigma)) == fired


class TestPseudoFire:
    def test_pseudo_fire_ignores_enabledness(self):
        c = Multiset({"u": 1})
        result = pseudo_fire(c, Multiset({T_COMBINE: 1}))
        assert result["u"] == -1  # not natural: was never enabled

    def test_pseudo_reachable(self):
        assert pseudo_reachable(Multiset({"u": 2}), Multiset({T_COMBINE: 1}))
        assert not pseudo_reachable(Multiset({"u": 1}), Multiset({T_COMBINE: 1}))


class TestRealiseParikh:
    def test_realises_when_saturated(self):
        """Lemma 5.1(ii): 2|pi|-saturated configurations realise pi."""
        pi = Multiset({T_COMBINE: 2, T_SPREAD: 1})
        c = Multiset({"u": 6, "v": 6, "z": 6})  # 6 = 2|pi| everywhere
        sequence = realise_parikh(c, pi)
        assert parikh(sequence) == pi
        assert fire_sequence(c, sequence) == pseudo_fire(c, pi)

    def test_raises_when_impossible(self):
        pi = Multiset({T_COMBINE: 1})
        with pytest.raises(TransitionNotEnabled):
            realise_parikh(Multiset({"z": 5}), pi)

    def test_empty_parikh(self):
        c = Multiset({"u": 2})
        assert realise_parikh(c, EMPTY) == []

    @given(st.integers(1, 4), st.integers(0, 3))
    def test_realisation_matches_pseudo(self, combines, spreads):
        pi = Multiset({T_COMBINE: combines, T_SPREAD: spreads})
        level = 2 * pi.size
        c = Multiset({"u": level, "v": level, "z": level})
        sequence = realise_parikh(c, pi)
        assert fire_sequence(c, sequence) == pseudo_fire(c, pi)


class TestProtocolLevelSemantics:
    def test_flat_threshold_run_to_acceptance(self):
        p = flat_threshold(3)
        c = p.initial_configuration(3)
        # combine 1+1 -> 0,2 then 2+1 -> 3,3 then spread
        t1 = next(t for t in p.transitions if t.pre == Multiset({1: 2}))
        c = fire(c, t1)
        t2 = next(t for t in p.transitions if t.pre == Multiset({1: 1, 2: 1}))
        c = fire(c, t2)
        assert c[3] >= 1

    def test_size_invariant_along_any_run(self, threshold5):
        c = threshold5.initial_configuration(6)
        size = c.size
        frontier = [c]
        for _ in range(4):
            nxt = []
            for config in frontier:
                for _, succ in successors(threshold5, config):
                    assert succ.size == size
                    nxt.append(succ)
            frontier = nxt[:5]
