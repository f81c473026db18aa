"""Tests for the time-series recorder."""

from __future__ import annotations

import math

import pytest

from repro import binary_threshold, majority_protocol
from repro.protocols.builders import ProtocolBuilder
from repro.simulation.statistics import TimeSeries, record_time_series


class TestRecordTimeSeries:
    def test_population_conserved_along_trajectory(self, threshold4):
        series = record_time_series(threshold4, 8, max_parallel_time=100, seed=1)
        assert all(sample.size == 8 for sample in series.samples)

    def test_times_increase(self, threshold4):
        series = record_time_series(threshold4, 6, max_parallel_time=100, seed=2)
        assert series.times == sorted(series.times)
        assert series.times[0] == 0.0

    def test_stops_at_silent_consensus(self, threshold4):
        from repro.core.configuration import is_silent

        series = record_time_series(threshold4, 8, max_parallel_time=10_000, seed=3)
        assert is_silent(threshold4, series.final())

    def test_consensus_fraction_reaches_one(self, threshold4):
        series = record_time_series(threshold4, 8, max_parallel_time=10_000, seed=4)
        fractions = series.consensus_fraction(1)
        assert fractions[-1] == pytest.approx(1.0)
        assert fractions[0] < 1.0

    def test_batch_mode(self, threshold4):
        series = record_time_series(
            threshold4, 5_000, max_parallel_time=100, seed=5, use_batch=True
        )
        assert all(sample.size == 5_000 for sample in series.samples)
        assert len(series.samples) >= 2

    def test_batch_leaps_do_not_grow_with_resolution(self):
        """Regression: ``use_batch`` leapt one whole sample interval at a
        time, so at n = 20,000 the mean infected count at t = 1 over seeds
        0-199 read 3.19 at resolution 1 but 7.61 at resolution 0.05."""
        epidemic = (
            ProtocolBuilder("epidemic")
            .state("i", output=1)
            .state("s", output=0)
            .rule("i", "s", "i", "i")
            .input("x", "s")
            .input("y", "i")
            .build()
        )
        inputs = {"x": 19_999, "y": 1}
        for seed in range(50):
            coarse, fine = (
                record_time_series(
                    epidemic, inputs, max_parallel_time=1, resolution=resolution,
                    seed=seed, use_batch=True,
                )
                for resolution in (1.0, 0.05)
            )
            assert coarse.times[-1] == fine.times[-1] == 1.0
            assert coarse.final()["i"] == fine.final()["i"], seed

    def test_counts_of(self, threshold4):
        series = record_time_series(threshold4, 6, max_parallel_time=50, seed=6)
        inputs = series.counts_of("2^0")
        assert inputs[0] == 6  # everyone starts as input

    def test_invalid_resolution(self, threshold4):
        with pytest.raises(ValueError):
            record_time_series(threshold4, 4, max_parallel_time=10, resolution=0)

    @pytest.mark.parametrize("use_batch", [False, True])
    def test_small_budget_rounds_up(self, use_batch):
        """Regression: int() truncation turned max_parallel_time=0.01 at
        n = 8 into a series with no interaction at all."""
        series = record_time_series(
            binary_threshold(4), 8, max_parallel_time=0.01, seed=0, use_batch=use_batch
        )
        assert series.times == [0.0, 1 / 8]

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.inf, math.nan])
    def test_invalid_budget(self, threshold4, bad):
        with pytest.raises(ValueError, match="max_parallel_time"):
            record_time_series(threshold4, 8, max_parallel_time=bad)

    def test_value_conservation_along_trajectory(self):
        """The binary threshold's encoded value is invariant pre-acceptance."""
        protocol = binary_threshold(8)

        def value(state):
            return 2 ** int(state[2:]) if state.startswith("2^") else 0

        series = record_time_series(protocol, 7, max_parallel_time=10_000, seed=7)
        totals = {
            sum(value(s) * c for s, c in sample.items() if s.startswith("2^") or s == "zero")
            for sample in series.samples
        }
        assert totals == {7}  # 7 < 8: never accepts, value conserved throughout


class TestRendering:
    def test_sparkline(self, threshold4):
        series = record_time_series(threshold4, 8, max_parallel_time=1_000, seed=8)
        line = series.sparkline("2^0")
        assert "2^0" in line and "peak" in line

    def test_render_all(self, threshold4):
        series = record_time_series(threshold4, 8, max_parallel_time=1_000, seed=9)
        text = series.render()
        assert "parallel" in text
        assert text.count("\n") >= 2

    def test_empty_series_final_raises(self, threshold4):
        with pytest.raises(ValueError):
            TimeSeries(protocol=threshold4).final()
