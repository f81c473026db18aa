"""Tests for the scheduler conformance harness (E11)."""

from __future__ import annotations

import math

import pytest

from repro import (
    binary_threshold,
    flat_threshold,
    leader_unary_threshold,
    majority_protocol,
    modulo_protocol,
)
from repro.core.multiset import Multiset
from repro.protocols.builders import ProtocolBuilder
from repro.protocols.leader_election import leader_election
from repro.simulation.conformance import (
    _chi_squared_test,
    _check_exact_trajectories,
    analytic_delta_distribution,
    analytic_pair_distribution,
    check_conformance,
    chi_squared_sf,
)
from repro.simulation.scheduler import CountScheduler


def coin_protocol():
    """A nondeterministic protocol: the pair (h, t) fires two rules."""
    return (
        ProtocolBuilder("coin")
        .state("h", output=1)
        .state("t", output=0)
        .rule("h", "t", "h", "h")
        .rule("h", "t", "t", "t")
        .input("x", "h")
        .input("y", "t")
        .build()
    )


class TestAnalyticDistributions:
    def test_pair_distribution_sums_to_one(self, majority):
        config = majority.initial_configuration({"x": 5, "y": 3})
        dist = analytic_pair_distribution(config)
        assert math.isclose(sum(dist.values()), 1.0, rel_tol=1e-12)

    def test_pair_distribution_values(self):
        # 3 a's, 2 b's: n(n-1) = 20 ordered pairs
        config = Multiset({"a": 3, "b": 2})
        dist = analytic_pair_distribution(config)
        assert math.isclose(dist[("a", "a")], 6 / 20)
        assert math.isclose(dist[("a", "b")], 12 / 20)
        assert math.isclose(dist[("b", "b")], 2 / 20)

    def test_singletons_have_no_self_pair(self):
        dist = analytic_pair_distribution(Multiset({"a": 1, "b": 1}))
        assert set(dist) == {("a", "b")}
        assert math.isclose(dist[("a", "b")], 1.0)

    def test_delta_distribution_sums_to_one(self, threshold4):
        config = threshold4.initial_configuration(6)
        dist = analytic_delta_distribution(threshold4, config)
        assert math.isclose(sum(dist.values()), 1.0, rel_tol=1e-12)

    def test_delta_distribution_nondeterministic_split(self):
        protocol = coin_protocol()
        config = protocol.initial_configuration({"x": 1, "y": 1})
        dist = analytic_delta_distribution(protocol, config)
        # (h, t) meets with probability 1 and splits its two outcomes evenly
        assert len(dist) == 2
        for probability in dist.values():
            assert math.isclose(probability, 0.5)


class TestChiSquared:
    def test_sf_at_zero_is_one(self):
        assert chi_squared_sf(0.0, 3) == 1.0

    def test_sf_known_quantiles(self):
        # textbook 5% critical values
        assert math.isclose(chi_squared_sf(3.841, 1), 0.05, abs_tol=1e-3)
        assert math.isclose(chi_squared_sf(5.991, 2), 0.05, abs_tol=1e-3)
        assert math.isclose(chi_squared_sf(18.307, 10), 0.05, abs_tol=1e-3)

    def test_sf_monotone_and_bounded(self):
        values = [chi_squared_sf(x, 4) for x in (0.5, 2.0, 8.0, 32.0)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_biased_sample_rejected(self):
        expected = {"a": 0.5, "b": 0.5}
        biased = _chi_squared_test("x", "pair", {"a": 1000, "b": 0}, expected, 1000, 1e-3)
        assert not biased.passed
        fair = _chi_squared_test("x", "pair", {"a": 503, "b": 497}, expected, 1000, 1e-3)
        assert fair.passed

    def test_stray_category_rejected_outright(self):
        result = _chi_squared_test(
            "x", "pair", {"a": 999, "impossible": 1}, {"a": 1.0}, 1000, 1e-3
        )
        assert not result.passed
        assert result.stray == ("impossible",)


class TestHarness:
    def test_rejects_degenerate_sample_count(self):
        with pytest.raises(ValueError):
            check_conformance(majority_protocol(), {"x": 5, "y": 3}, samples=0)

    @pytest.mark.parametrize("seeds", ["trajectory_seeds", "matched_seeds"])
    def test_rejects_empty_seed_list(self, seeds):
        # an empty list used to check nothing there and still report ok
        with pytest.raises(ValueError, match="at least one seed"):
            check_conformance(majority_protocol(), {"x": 5, "y": 3}, samples=50, **{seeds: ()})

    @pytest.mark.parametrize("steps", [0, -5])
    def test_rejects_degenerate_trajectory_steps(self, steps):
        # zero steps used to check 0 interactions per sampler and report ok
        with pytest.raises(ValueError, match="trajectory_steps"):
            check_conformance(binary_threshold(4), 6, samples=100, trajectory_steps=steps)

    @pytest.mark.parametrize("significance", [0.0, -0.1, 1.0, 2.0])
    def test_rejects_significance_outside_unit_interval(self, significance):
        # at 0 every chi-squared test passed, at 1 or more nearly all failed
        with pytest.raises(ValueError, match="significance"):
            check_conformance(binary_threshold(4), 6, samples=100, significance=significance)

    def test_majority_passes(self, majority):
        report = check_conformance(
            majority, {"x": 5, "y": 3}, samples=600, trajectory_steps=150
        )
        assert report.ok, report.render()
        assert report.vector_distribution_error < 1e-9
        # pair+delta per exact sampler, delta for the tau-leap engine
        assert len(report.first_step) == 5

    def test_flat_threshold_passes(self, flat3):
        report = check_conformance(flat3, 6, samples=600, trajectory_steps=150)
        assert report.ok, report.render()

    def test_nondeterministic_protocol_passes(self):
        report = check_conformance(
            coin_protocol(),
            {"x": 4, "y": 4},
            samples=600,
            trajectory_steps=150,
            # the coin is a martingale: its consensus value is random, so
            # matched seeds cannot be expected to agree on the verdict
            compare_verdicts=False,
        )
        assert report.ok, report.render()

    def test_report_is_machine_readable(self, threshold4):
        import json

        report = check_conformance(threshold4, 5, samples=400, trajectory_steps=100)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert len(payload["first_step"]) == 5
        assert payload["population"] == 5

    def test_broken_scheduler_is_caught(self, threshold4):
        class LeakyScheduler(CountScheduler):
            """Drops an agent every 10th step — violates conservation."""

            def __init__(self, protocol, seed=None):
                super().__init__(protocol, seed=seed)
                self._ticks = 0

            def step(self):
                outcome = super().step()
                self._ticks += 1
                if self._ticks % 10 == 0:
                    for i, c in enumerate(self.counts):
                        if c > 0:
                            self.counts[i] -= 1
                            break
                return outcome

        check = _check_exact_trajectories(
            threshold4, LeakyScheduler, "leaky", 6, seeds=(0,), steps=50
        )
        assert not check.passed
        assert any("population" in v for v in check.violations)


@pytest.mark.slow
class TestFullSweep:
    """The full differential suite over every shipped example protocol.

    Deselected from tier-1 (`pytest -m slow` runs it); the quick
    variants above keep per-commit coverage.
    """

    CASES = [
        ("binary:4", binary_threshold(4), 8),
        ("binary:5", binary_threshold(5), 9),
        ("flat:3", flat_threshold(3), 7),
        ("majority", majority_protocol(), {"x": 5, "y": 3}),
        ("modulo:1:3", modulo_protocol({"x": 1}, 1, 3), 7),
        ("leader-unary:3", leader_unary_threshold(3), 5),
    ]

    @pytest.mark.parametrize("name,protocol,inputs", CASES, ids=[c[0] for c in CASES])
    def test_shipped_protocol_conforms(self, name, protocol, inputs):
        report = check_conformance(protocol, inputs)
        assert report.ok, report.render()

    def test_leader_election_conforms(self):
        # no 0-output states: runs converge to the all-follower consensus
        report = check_conformance(leader_election(), 6)
        assert report.ok, report.render()
