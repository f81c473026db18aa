"""Tests for the protocol model: Transition, PopulationProtocol, IndexedProtocol."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, ProtocolError
from repro.core.multiset import Multiset
from repro.core.protocol import IndexedProtocol, PopulationProtocol, Transition


def tiny_protocol(**overrides):
    kwargs = dict(
        states=("p", "q"),
        transitions=(Transition("p", "p", "p", "q"),),
        leaders=Multiset(),
        input_mapping={"x": "p"},
        output={"p": 0, "q": 1},
        name="tiny",
    )
    kwargs.update(overrides)
    return PopulationProtocol(**kwargs)


class TestTransition:
    def test_unordered_pre_and_post(self):
        assert Transition("b", "a", "d", "c") == Transition("a", "b", "c", "d")

    def test_pre_post_multisets(self):
        t = Transition("a", "a", "b", "c")
        assert t.pre == Multiset({"a": 2})
        assert t.post == Multiset({"b": 1, "c": 1})

    def test_displacement(self):
        t = Transition("p", "q", "p", "r")
        d = t.displacement
        assert d["p"] == 0 and d["q"] == -1 and d["r"] == 1

    def test_displacement_range(self):
        t = Transition("a", "a", "b", "b")
        assert t.displacement == Multiset({"a": -2, "b": 2})

    def test_is_silent(self):
        assert Transition("a", "b", "b", "a").is_silent
        assert not Transition("a", "b", "a", "a").is_silent

    def test_enabled_in(self):
        t = Transition("a", "b", "c", "c")
        assert t.enabled_in(Multiset({"a": 1, "b": 1}))
        assert not t.enabled_in(Multiset({"a": 2}))

    def test_enabled_same_state_needs_two(self):
        t = Transition("a", "a", "b", "b")
        assert not t.enabled_in(Multiset({"a": 1}))
        assert t.enabled_in(Multiset({"a": 2}))

    def test_states(self):
        assert Transition("a", "b", "c", "a").states() == frozenset("abc")

    def test_str(self):
        assert str(Transition("a", "b", "c", "d")) == "a, b -> c, d"


class TestProtocolValidation:
    def test_valid_protocol(self):
        p = tiny_protocol()
        assert p.num_states == 2
        assert p.num_transitions == 1

    def test_unknown_state_in_transition(self):
        with pytest.raises(ProtocolError, match="unknown states"):
            tiny_protocol(transitions=(Transition("p", "zzz", "p", "p"),))

    def test_missing_output(self):
        with pytest.raises(ProtocolError, match="no output"):
            tiny_protocol(output={"p": 0})

    def test_bad_output_value(self):
        with pytest.raises(ProtocolError, match="must be 0 or 1"):
            tiny_protocol(output={"p": 0, "q": 2})

    def test_output_for_unknown_state(self):
        with pytest.raises(ProtocolError, match="unknown states"):
            tiny_protocol(output={"p": 0, "q": 1, "r": 0})

    def test_input_to_unknown_state(self):
        with pytest.raises(ProtocolError, match="unknown state"):
            tiny_protocol(input_mapping={"x": "zzz"})

    def test_negative_leaders_rejected(self):
        with pytest.raises(ProtocolError, match="non-negative"):
            tiny_protocol(leaders=Multiset({"p": -1}))

    def test_unknown_leader_state(self):
        with pytest.raises(ProtocolError, match="unknown states"):
            tiny_protocol(leaders=Multiset({"zzz": 1}))

    def test_duplicate_transitions_removed(self):
        p = tiny_protocol(
            transitions=(Transition("p", "p", "p", "q"), Transition("p", "p", "p", "q"))
        )
        assert p.num_transitions == 1

    def test_duplicate_states_removed(self):
        p = tiny_protocol(states=("p", "q", "p"))
        assert p.num_states == 2

    def test_states_sharing_a_name_rejected(self):
        # Pairs are ordered by str(state): with 1 and "1" both present the
        # samplers missed the transition on half of the draws of the pair.
        with pytest.raises(ProtocolError, match="1 and '1' share the name"):
            PopulationProtocol(
                states=[1, "1", "t"],
                transitions=[Transition("1", 1, "t", "t")],
                input_mapping={"x": 1, "y": "1"},
                output={1: 0, "1": 0, "t": 1},
            )


class TestProtocolStructure:
    def test_is_leaderless(self):
        assert tiny_protocol().is_leaderless
        assert not tiny_protocol(leaders=Multiset({"q": 1})).is_leaderless

    def test_variables(self):
        assert tiny_protocol().variables == ("x",)

    def test_transitions_from(self):
        p = tiny_protocol()
        assert p.transitions_from("p", "p") == (Transition("p", "p", "p", "q"),)
        assert p.transitions_from("p", "q") == ()

    def test_is_complete_false_then_completed(self):
        p = tiny_protocol()
        assert not p.is_complete
        c = p.completed()
        assert c.is_complete
        # identity transitions added for (p,q) and (q,q)
        assert c.num_transitions == 3

    def test_completed_idempotent(self):
        c = tiny_protocol().completed()
        assert c.completed() is c

    def test_is_deterministic(self):
        assert tiny_protocol().is_deterministic
        p = tiny_protocol(
            transitions=(Transition("p", "p", "p", "q"), Transition("p", "p", "q", "q"))
        )
        assert not p.is_deterministic

    def test_states_with_output(self):
        p = tiny_protocol()
        assert p.states_with_output(1) == ("q",)

    def test_describe_and_str(self):
        p = tiny_protocol()
        assert "tiny" in str(p)
        text = p.describe()
        assert "states (2)" in text and "p, p -> p, q" in text


class TestInitialConfiguration:
    def test_integer_input(self):
        p = tiny_protocol()
        assert p.initial_configuration(4) == Multiset({"p": 4})

    def test_mapping_input(self):
        p = tiny_protocol()
        assert p.initial_configuration({"x": 3}) == Multiset({"p": 3})

    def test_leaders_added(self):
        p = tiny_protocol(leaders=Multiset({"q": 2}))
        assert p.initial_configuration(3) == Multiset({"p": 3, "q": 2})

    def test_integer_input_requires_single_variable(self):
        p = tiny_protocol(input_mapping={"x": "p", "y": "q"})
        with pytest.raises(ConfigurationError, match="unique input"):
            p.initial_configuration(4)

    def test_unknown_variable(self):
        p = tiny_protocol()
        with pytest.raises(ConfigurationError, match="unknown input"):
            p.initial_configuration({"y": 2})

    def test_negative_input(self):
        p = tiny_protocol()
        with pytest.raises(ConfigurationError, match="natural"):
            p.initial_configuration({"x": -1})

    def test_too_small_population(self):
        p = tiny_protocol()
        with pytest.raises(ConfigurationError, match="two agents"):
            p.initial_configuration(1)

    def test_leaders_count_toward_minimum(self):
        p = tiny_protocol(leaders=Multiset({"q": 2}))
        assert p.initial_configuration(0) == Multiset({"q": 2})


class TestOutputs:
    def test_consensus_output(self):
        p = tiny_protocol()
        assert p.output_of(Multiset({"p": 3})) == 0
        assert p.output_of(Multiset({"q": 2})) == 1

    def test_undefined_output(self):
        p = tiny_protocol()
        assert p.output_of(Multiset({"p": 1, "q": 1})) is None


class TestRenaming:
    def test_renamed(self):
        p = tiny_protocol().renamed({"p": "P"}, name="renamed")
        assert "P" in p.states
        assert p.input_mapping["x"] == "P"
        assert p.output["P"] == 0
        assert p.name == "renamed"

    def test_renaming_must_be_injective(self):
        with pytest.raises(ProtocolError, match="injective"):
            tiny_protocol().renamed({"p": "q"})


class TestIndexedProtocol:
    def test_encode_decode_roundtrip(self):
        p = tiny_protocol()
        indexed = p.indexed()
        config = Multiset({"p": 2, "q": 1})
        assert indexed.decode(indexed.encode(config)) == config

    def test_successors(self):
        p = tiny_protocol()
        indexed = p.indexed()
        succ = indexed.successors((2, 0))
        assert succ == [(0, (1, 1))]

    def test_successors_respect_enabledness(self):
        p = tiny_protocol()
        indexed = p.indexed()
        assert indexed.successors((1, 1)) == []

    def test_silent_transitions_skipped(self):
        p = tiny_protocol(transitions=(Transition("p", "q", "q", "p"),))
        indexed = p.indexed()
        assert indexed.successors((1, 1)) == []

    def test_output_of(self):
        indexed = tiny_protocol().indexed()
        assert indexed.output_of((2, 0)) == 0
        assert indexed.output_of((0, 2)) == 1
        assert indexed.output_of((1, 1)) is None

    def test_initial_counts(self):
        indexed = tiny_protocol().indexed()
        assert indexed.initial_counts(3) == (3, 0)

    def test_enabled_same_state_pair(self):
        p = tiny_protocol()
        indexed = p.indexed()
        assert indexed.enabled((2, 0), 0)
        assert not indexed.enabled((1, 1), 0)
