"""Tests for stable configurations and slices (Definition 2, Lemma 3.1)."""

from __future__ import annotations

import random

import pytest

from repro import binary_threshold
from repro.analysis.stable import (
    check_downward_closure,
    is_stable,
    stability_of,
    stable_slice,
    stable_verdicts,
)
from repro.bounds.enumeration import (
    all_deterministic_protocols,
    count_deterministic_protocols,
    protocol_at,
)
from repro.cli import resolve_protocol
from repro.core.errors import ConfigurationError
from repro.core.multiset import Multiset
from repro.protocols.majority import majority_protocol
from repro.reachability.graph import ReachabilityGraph


class TestSingleConfigurationStability:
    def test_all_accept_is_1_stable(self, threshold4):
        assert stability_of(threshold4, Multiset({"2^2": 5})) == 1

    def test_terminal_reject_is_0_stable(self, threshold4):
        # distinct powers below the threshold, nothing can fire
        assert stability_of(threshold4, Multiset({"2^1": 1, "2^0": 1, "zero": 1})) == 0

    def test_transient_configuration_not_stable(self, threshold4):
        # four units can still reach acceptance
        assert stability_of(threshold4, Multiset({"2^0": 4})) is None

    def test_is_stable_wrapper(self, threshold4):
        assert is_stable(threshold4, Multiset({"2^2": 3}), 1)
        assert not is_stable(threshold4, Multiset({"2^2": 3}), 0)

    def test_non_consensus_not_stable(self, threshold4):
        assert stability_of(threshold4, Multiset({"2^2": 1, "zero": 1})) is None

    def test_unknown_state_rejected(self, threshold4):
        # regression: the unknown agents were dropped and the verdict was 0
        with pytest.raises(ConfigurationError):
            stability_of(threshold4, Multiset({"nosuch": 3, "zero": 2}))


class TestStableSlice:
    def test_partition_sanity(self, threshold4):
        sl = stable_slice(threshold4, 4)
        assert sl.stable0 and sl.stable1
        assert not (sl.stable0 & sl.stable1)
        assert sl.stable == sl.stable0 | sl.stable1

    def test_membership(self, threshold4):
        sl = stable_slice(threshold4, 4)
        assert sl.membership(Multiset({"2^2": 4})) == 1
        assert sl.membership(Multiset({"2^0": 4})) is None

    def test_matches_per_configuration_check(self, threshold4):
        """The slice agrees with the direct forward-closure stability check."""
        sl = stable_slice(threshold4, 4)
        for config in sl.all_configs:
            decoded = sl.decode(config)
            expected = stability_of(threshold4, decoded)
            assert sl.membership(decoded) == expected, decoded.pretty()

    def test_stable_multisets_sorted_deterministic(self, threshold4):
        sl = stable_slice(threshold4, 3)
        listed = sl.stable_multisets(0)
        assert listed == sl.stable_multisets(0)
        assert all(m.size == 3 for m in listed)

    def test_all_accept_always_stable(self, threshold4):
        for size in (2, 3, 5):
            sl = stable_slice(threshold4, size)
            assert sl.membership(Multiset({"2^2": size})) == 1

    def test_repr(self, threshold4):
        assert "StableSlice" in repr(stable_slice(threshold4, 3))

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_rejected(self, threshold4, size):
        # size 0 used to put the empty configuration in both SC_0 and SC_1
        # (stability_of says it is in neither); size -1 gave an empty slice
        with pytest.raises(ValueError, match="size must be >= 1"):
            stable_slice(threshold4, size)

    def test_size_one_is_valid(self, threshold4):
        sl = stable_slice(threshold4, 1)
        assert len(sl.all_configs) == threshold4.num_states
        for config in sl.all_configs:
            assert sl.membership(sl.decode(config)) == stability_of(threshold4, sl.decode(config))


def _assert_matches_definition(protocol, graph):
    """``stable_verdicts`` agrees with ``stability_of`` on every node; returns the node count."""
    verdicts = stable_verdicts(graph)
    indexed = protocol.indexed()
    for config in graph.nodes:
        assert verdicts.get(config) == stability_of(protocol, indexed.decode(config)), (
            protocol.name,
            config,
        )
    return len(graph.nodes)


class TestStableVerdicts:
    """One backward closure per ``b`` decides Definition 2 for a whole graph."""

    def test_two_state_protocols(self):
        nodes = 0
        for protocol in all_deterministic_protocols(2):
            for size in range(2, 7):
                graph = ReachabilityGraph.full_slice(protocol, size)
                nodes += _assert_matches_definition(protocol, graph)
                initial = protocol.indexed().initial_counts(size)
                graph = ReachabilityGraph.from_roots(protocol, [initial])
                nodes += _assert_matches_definition(protocol, graph)
        assert nodes == 5_400 + 3_480

    def test_three_state_protocols(self):
        rng = random.Random(19)
        total = count_deterministic_protocols(3)
        nodes = 0
        for _ in range(1_000):
            protocol = protocol_at(3, rng.randrange(total))
            for size in range(2, 6):
                graph = ReachabilityGraph.full_slice(protocol, size)
                nodes += _assert_matches_definition(protocol, graph)
        assert nodes == 52_000

    @pytest.mark.parametrize(
        "spec,inputs",
        [
            ("approx-majority", [{"x": 6, "y": 5}, {"x": 4, "y": 4}, {"x": 2, "y": 7}]),
            ("majority", [{"x": 6, "y": 5}, {"x": 4, "y": 4}, {"x": 2, "y": 7}]),
            ("binary:4", [3, 7, 10]),
            ("flat:4", [3, 7, 10]),
            ("leroux-leader:2", [3, 8, 12]),
        ],
    )
    def test_shipped_protocols(self, spec, inputs):
        protocol = resolve_protocol(spec)
        indexed = protocol.indexed()
        for value in inputs:
            graph = ReachabilityGraph.from_roots(protocol, [indexed.initial_counts(value)])
            _assert_matches_definition(protocol, graph)

    def test_empty_configuration_is_never_stable(self, threshold4):
        graph = ReachabilityGraph.from_roots(threshold4, [(0,) * threshold4.num_states])
        assert stable_verdicts(graph) == {}
        assert stability_of(threshold4, Multiset()) is None


class TestLemma31DownwardClosure:
    """Lemma 3.1: SC_b is downward closed."""

    @pytest.mark.parametrize("b", [0, 1])
    def test_threshold(self, threshold4, b):
        assert check_downward_closure(threshold4, max_size=5, b=b) is None

    @pytest.mark.parametrize("b", [0, 1])
    def test_majority(self, b):
        assert check_downward_closure(majority_protocol(), max_size=5, b=b) is None

    @pytest.mark.parametrize("b", [0, 1])
    def test_non_power_threshold(self, threshold5, b):
        assert check_downward_closure(threshold5, max_size=5, b=b) is None
