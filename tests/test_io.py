"""Tests for protocol serialisation (JSON) and DOT export."""

from __future__ import annotations

import json

import pytest

from repro import binary_threshold, counting, majority_protocol, verify_protocol
from repro.core.errors import ProtocolError
from repro.core.predicates import majority
from repro.io import dumps, loads, protocol_from_dict, protocol_to_dict, to_dot
from repro.protocols.leaders import leader_unary_threshold


class TestJsonRoundTrip:
    def test_round_trip_structure(self, threshold4):
        restored = loads(dumps(threshold4))
        assert restored.num_states == threshold4.num_states
        assert restored.num_transitions == threshold4.num_transitions
        assert restored.name == threshold4.name
        assert restored.is_leaderless

    def test_round_trip_semantics(self, threshold4):
        """The deserialised protocol still computes x >= 4."""
        restored = loads(dumps(threshold4))
        report = verify_protocol(restored, counting(4), max_input_size=7)
        assert report.ok

    def test_round_trip_majority(self):
        protocol = majority_protocol()
        restored = loads(dumps(protocol))
        report = verify_protocol(restored, majority(), max_input_size=6)
        assert report.ok

    def test_round_trip_leaders(self):
        protocol = leader_unary_threshold(3)
        restored = loads(dumps(protocol))
        assert restored.leaders.size == 1
        report = verify_protocol(restored, counting(3), max_input_size=6, min_input_size=1)
        assert report.ok

    def test_integer_states_stringified(self):
        from repro.protocols.threshold_flat import flat_threshold

        protocol = flat_threshold(3)  # integer state names
        restored = loads(dumps(protocol))
        assert all(isinstance(s, str) for s in restored.states)
        report = verify_protocol(restored, counting(3), max_input_size=6)
        assert report.ok

    def test_json_is_valid_and_sorted(self, threshold4):
        payload = json.loads(dumps(threshold4))
        assert payload["format"] == 1
        assert set(payload) == {
            "format", "name", "states", "transitions", "leaders", "inputs", "outputs",
        }

    def test_unsupported_format_rejected(self, threshold4):
        data = protocol_to_dict(threshold4)
        data["format"] = 99
        with pytest.raises(ProtocolError, match="format"):
            protocol_from_dict(data)

    def test_colliding_stringification_rejected(self, threshold4):
        # The constructor rejects two states with one name (1 and "1"),
        # so only a hand-edited file can repeat a serialised state.
        data = protocol_to_dict(threshold4)
        data["states"][1] = data["states"][0]
        with pytest.raises(ProtocolError, match="not distinct"):
            protocol_from_dict(data)


class TestDot:
    def test_renders_digraph(self, threshold4):
        dot = to_dot(threshold4)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")

    def test_all_states_present(self, threshold4):
        dot = to_dot(threshold4)
        for state in threshold4.states:
            assert f'"{state}"' in dot

    def test_accepting_states_doubled(self, threshold4):
        dot = to_dot(threshold4)
        accept = threshold4.states_with_output(1)[0]
        assert f'"{accept}" [peripheries=2' in dot

    def test_input_state_shape(self, threshold4):
        dot = to_dot(threshold4)
        assert "shape=house" in dot

    def test_leader_state_bold(self):
        dot = to_dot(leader_unary_threshold(2))
        assert "penwidth=2" in dot

    def test_silent_transitions_omitted(self, threshold4):
        dot = to_dot(threshold4.completed())
        # the completed protocol has identity rules; they produce no edges
        assert dot.count("->") == to_dot(threshold4).count("->")
