"""Tests for the public hypothesis-strategy module ``repro.testing``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol
from repro.testing import (
    configurations,
    inputs_for,
    instrumentation_snapshots,
    partitions,
    protocols,
    renamings,
)


class TestProtocolsStrategy:
    @settings(max_examples=30)
    @given(protocols())
    def test_generates_valid_protocols(self, protocol):
        assert isinstance(protocol, PopulationProtocol)
        assert 2 <= protocol.num_states <= 3
        assert protocol.is_complete
        assert protocol.is_deterministic
        assert protocol.is_leaderless
        assert protocol.variables == ("x",)

    @settings(max_examples=20)
    @given(protocols(max_states=4))
    def test_max_states_respected(self, protocol):
        assert protocol.num_states <= 4

    def test_invalid_max_states(self):
        with pytest.raises(ValueError):
            protocols(max_states=1)
        with pytest.raises(ValueError):
            protocols(max_states=99)


class TestConfigurationsStrategy:
    @settings(max_examples=30)
    @given(configurations())
    def test_generates_valid_configurations(self, configuration):
        assert isinstance(configuration, Multiset)
        assert configuration.is_natural
        assert configuration.size >= 2


class TestInputsForStrategy:
    def test_inputs_valid_for_protocol(self):
        from hypothesis import given as hgiven

        from repro import binary_threshold

        protocol = binary_threshold(3)

        @hgiven(inputs_for(protocol))
        @settings(max_examples=30)
        def inner(inputs):
            configuration = protocol.initial_configuration(inputs)
            assert configuration.size >= 2

        inner()

    def test_inputs_valid_with_leaders(self):
        from hypothesis import given as hgiven

        from repro.protocols.leaders import leader_unary_threshold

        protocol = leader_unary_threshold(2)

        @hgiven(inputs_for(protocol))
        @settings(max_examples=30)
        def inner(inputs):
            configuration = protocol.initial_configuration(inputs)
            assert configuration.size >= 2

        inner()


class TestPartitionsStrategy:
    @settings(max_examples=30)
    @given(st.integers(0, 40), st.data())
    def test_partitions_cover_range_exactly(self, total, data):
        parts = data.draw(partitions(total))
        covered = [i for start, stop in parts for i in range(start, stop)]
        assert covered == list(range(total))

    @settings(max_examples=30)
    @given(st.data())
    def test_max_chunk_respected(self, data):
        parts = data.draw(partitions(25, max_chunk=4))
        assert all(1 <= stop - start <= 4 for start, stop in parts)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            partitions(-1)


class TestRenamingsStrategy:
    @settings(max_examples=30)
    @given(st.data())
    def test_maps_every_state_injectively(self, data):
        protocol = data.draw(protocols())
        mapping = data.draw(renamings(protocol))
        assert set(mapping) == set(protocol.states)
        assert len(set(mapping.values())) == len(mapping)

    @settings(max_examples=30)
    @given(st.data())
    def test_fresh_targets_disjoint_from_states(self, data):
        protocol = data.draw(protocols())
        mapping = data.draw(renamings(protocol, fresh=True))
        assert not set(mapping.values()) & set(protocol.states)

    @settings(max_examples=30)
    @given(st.data())
    def test_permutation_targets_are_the_state_set(self, data):
        protocol = data.draw(protocols())
        mapping = data.draw(renamings(protocol, fresh=False))
        assert set(mapping.values()) == set(protocol.states)

    @settings(max_examples=30)
    @given(st.data())
    def test_renamed_protocol_is_valid(self, data):
        protocol = data.draw(protocols())
        mapping = data.draw(renamings(protocol))
        renamed = protocol.renamed(mapping)
        assert renamed.num_states == protocol.num_states
        assert renamed.num_transitions == protocol.num_transitions


class TestInstrumentationSnapshotsStrategy:
    @settings(max_examples=30)
    @given(instrumentation_snapshots())
    def test_generates_valid_snapshots(self, snapshot):
        assert isinstance(snapshot, dict)
        assert all(isinstance(value, int) and value >= 0 for value in snapshot.values())
