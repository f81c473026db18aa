"""Tests for the simulators: exact schedulers, convergence, traces."""

from __future__ import annotations

import pytest

from repro import binary_threshold, majority_protocol
from repro.core.errors import ProtocolError
from repro.core.multiset import Multiset
from repro.protocols.leaders import leader_unary_threshold
from repro.simulation.convergence import (
    convergence_scaling,
    fit_nlogn,
    measure_convergence,
)
from repro.simulation.scheduler import CountScheduler
from repro.simulation.trace import record_trace


@pytest.mark.parametrize("sampler", [CountScheduler])
class TestAdvance:
    def test_advance_equals_steps(self, sampler, majority):
        stepped = sampler(majority, seed=4)
        advanced = sampler(majority, seed=4)
        stepped.reset({"x": 9, "y": 6})
        advanced.reset({"x": 9, "y": 6})
        for _ in range(37):
            stepped.step()
        advanced.advance(37)
        assert advanced.counts == stepped.counts
        assert advanced.rng.random() == stepped.rng.random()

    def test_reads_population_edited_between_calls(self, sampler, threshold4):
        scheduler = sampler(threshold4, seed=0)
        scheduler.reset(6)
        scheduler.advance(5)
        scheduler.counts[threshold4.indexed().index["2^0"]] += 3
        scheduler.advance(40)
        assert scheduler.population == 9
        assert sum(scheduler.counts) == 9

    def test_population_too_small(self, sampler, threshold4):
        scheduler = sampler(threshold4, seed=0)
        scheduler.reset(2)
        scheduler.advance(3)
        scheduler.counts = [1, 0, 0, 0]
        with pytest.raises(ProtocolError):
            scheduler.advance(1)


class TestCountScheduler:
    def test_matches_initial(self, threshold4):
        scheduler = CountScheduler(threshold4, seed=0)
        scheduler.reset(6)
        assert scheduler.configuration == Multiset({"2^0": 6})
        assert scheduler.population == 6

    def test_step_preserves_population(self, threshold4):
        scheduler = CountScheduler(threshold4, seed=3)
        scheduler.reset(6)
        for _ in range(100):
            scheduler.step()
            assert scheduler.population == 6
            assert all(c >= 0 for c in scheduler.counts)

    def test_run_accepts_and_rejects_correctly(self, threshold4):
        accept = CountScheduler(threshold4, seed=5).run(9, max_steps=100_000)
        assert accept.converged and threshold4.output_of(accept.configuration) == 1
        reject = CountScheduler(threshold4, seed=5).run(3, max_steps=100_000)
        assert reject.converged and threshold4.output_of(reject.configuration) == 0

    def test_leader_protocol(self):
        protocol = leader_unary_threshold(3)
        result = CountScheduler(protocol, seed=2).run(5, max_steps=100_000)
        assert result.converged
        assert protocol.output_of(result.configuration) == 1

    def test_parallel_time(self, threshold4):
        result = CountScheduler(threshold4, seed=0).run(4, max_steps=10_000)
        assert result.parallel_time == result.interactions / result.population

    def test_step_outcome_fields(self, threshold4):
        scheduler = CountScheduler(threshold4, seed=0)
        scheduler.reset(4)
        outcome = scheduler.step()
        assert len(outcome.pre) == 2 and len(outcome.post) == 2


class TestConvergence:
    def test_measure_basic(self, threshold4):
        stats = measure_convergence(threshold4, 8, trials=3, seed=0)
        assert stats.trials == 3
        assert stats.population == 8
        assert stats.mean_parallel_time > 0
        assert stats.max_parallel_time >= stats.mean_parallel_time

    def test_scaling_and_fit(self):
        protocol = leader_unary_threshold(2)
        stats = convergence_scaling(protocol, lambda n: n, sizes=[16, 32, 64], trials=3)
        assert [s.population for s in stats] == [17, 33, 65]  # + leader
        c, d = fit_nlogn(stats)
        assert isinstance(c, float) and isinstance(d, float)

    def test_trials_validated(self, threshold4):
        # zero trials used to fail inside statistics.fmean
        with pytest.raises(ValueError, match="at least one trial"):
            measure_convergence(threshold4, 9, trials=0)

    def test_fit_needs_two_points(self, threshold4):
        with pytest.raises(ValueError):
            fit_nlogn([measure_convergence(threshold4, 4, trials=2)])


class TestTrace:
    def test_replay_consistency(self, threshold4):
        trace = record_trace(threshold4, 6, max_steps=5000, seed=3)
        final = trace.replay()
        assert final.size == 6

    def test_records_until_silence(self, threshold4):
        trace = record_trace(threshold4, 8, max_steps=100_000, seed=3)
        final = trace.final_configuration()
        from repro.core.configuration import is_silent

        assert is_silent(threshold4, final)

    def test_changed_events_subset(self, threshold4):
        trace = record_trace(threshold4, 6, max_steps=2000, seed=1)
        assert len(trace.changed_events()) <= len(trace.events)

    def test_summary_renders(self, threshold4):
        trace = record_trace(threshold4, 5, max_steps=2000, seed=1)
        text = trace.summary()
        assert "initial" in text and "final" in text

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_non_positive_budget_rejected(self, threshold4, max_steps):
        # regression: max_steps=-1 returned an empty trace, where the
        # schedulers' run raises
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            record_trace(threshold4, 6, max_steps=max_steps)

    def test_inconsistent_trace_rejected(self, threshold4):
        from repro.simulation.trace import Trace, TraceEvent

        trace = Trace(
            protocol=threshold4,
            initial=Multiset({"2^0": 2}),
            events=[TraceEvent(0, ("2^2", "2^2"), ("2^2", "2^2"))],
        )
        with pytest.raises(ValueError):
            trace.replay()
