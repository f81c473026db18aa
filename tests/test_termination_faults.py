"""Tests for convergence classification and fault injection."""

from __future__ import annotations

import pytest

from repro import binary_threshold, majority_protocol
from repro.analysis import ConvergenceClass, classify_input, is_silent_protocol
from repro.core.errors import ProtocolError
from repro.protocols.builders import ProtocolBuilder
from repro.simulation import CountScheduler
from repro.simulation.faults import Fault, corrupt, crash, run_with_faults


class TestClassifyInput:
    def test_threshold_is_silent(self, threshold4):
        for i in (3, 4, 6):
            result = classify_input(threshold4, i)
            assert result.convergence is ConvergenceClass.SILENT
            assert result.verdict == (1 if i >= 4 else 0)

    def test_majority_live_consensus(self):
        """With actives still around, followers keep moving inside the
        accepting bottom SCC on some inputs — or converge silently;
        either way the verdict is uniform."""
        protocol = majority_protocol()
        result = classify_input(protocol, {"x": 3, "y": 1})
        assert result.verdict == 1

    def test_oscillator_no_consensus(self):
        oscillator = (
            ProtocolBuilder("oscillator")
            .state("p", output=0)
            .state("q", output=1)
            .rule("p", "p", "p", "q")
            .rule("p", "q", "p", "p")
            .input("x", "p")
            .build()
        )
        result = classify_input(oscillator, 3)
        assert result.convergence is ConvergenceClass.NO_CONSENSUS
        assert result.verdict is None

    def test_live_consensus_detected(self, churn):
        """All-output-1 states churning forever: consensus but not silent."""
        result = classify_input(churn, 3)
        assert result.convergence is ConvergenceClass.LIVE_CONSENSUS
        assert result.verdict == 1

    def test_counts_reported(self, threshold4):
        result = classify_input(threshold4, 4)
        assert result.bottom_scc_count >= 1
        assert result.largest_bottom_scc == 1


class TestIsSilentProtocol:
    def test_threshold_family_is_silent(self, threshold4):
        assert is_silent_protocol(threshold4, max_input_size=6)

    def test_majority_is_silent_on_small_inputs(self):
        # the tug-of-war SCCs are not *bottom* SCCs: exits always exist
        assert is_silent_protocol(majority_protocol(), max_input_size=5)


class TestFaultValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Fault(at_interaction=0, kind="meltdown")

    def test_corrupt_needs_target(self):
        with pytest.raises(ValueError):
            Fault(at_interaction=0, kind="corrupt")

    def test_corrupt_target_must_exist(self, threshold4):
        with pytest.raises(ProtocolError):
            run_with_faults(threshold4, 5, [corrupt(0, target_state="nope")])

    @pytest.mark.parametrize(
        "fault",
        [crash(0, state="nosuch"), corrupt(0, "2^0", state="nosuch")],
        ids=["crash", "corrupt"],
    )
    def test_restricting_state_must_exist(self, threshold4, fault):
        # regression: the fault was dropped as skipped (faults_skipped=1)
        # and the run reported the verdict of a fault-free run
        with pytest.raises(ProtocolError, match="'nosuch' is not a state"):
            run_with_faults(threshold4, 6, [fault], seed=0)

    def test_count_positive(self):
        with pytest.raises(ValueError):
            crash(0, count=0)

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_non_positive_budget_rejected(self, threshold4, max_steps):
        # regression: max_steps=0 returned an unconverged result with a
        # verdict, where the schedulers' run raises
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            run_with_faults(threshold4, 6, [], max_steps=max_steps)

    def test_negative_schedule_rejected(self):
        # regression: a negative at_interaction used to be accepted and
        # silently fire at step 0
        with pytest.raises(ValueError):
            crash(-1)
        with pytest.raises(ValueError):
            corrupt(-5, target_state="q")


class TestFaultInjection:
    def test_crash_reduces_population(self, threshold4):
        result = run_with_faults(threshold4, 8, [crash(0, count=3)], seed=1)
        assert result.survivors == 5
        assert result.faults_applied == 3

    def test_crash_below_threshold_flips_verdict(self, threshold4):
        """8 >= 4 normally accepts; crashing 5 input agents immediately
        leaves 3 < 4, which must reject."""
        result = run_with_faults(
            threshold4, 8, [crash(0, count=5, state="2^0")], seed=2, max_steps=200_000
        )
        assert result.converged
        assert result.verdict == 0

    def test_acceptance_is_crash_tolerant_after_commit(self, threshold4):
        """Once the accepting epidemic finished, crashes cannot undo it."""
        clean = run_with_faults(threshold4, 8, [], seed=3, max_steps=200_000)
        assert clean.verdict == 1
        late_crash = run_with_faults(
            threshold4, 8, [crash(150_000, count=3)], seed=3, max_steps=200_000
        )
        assert late_crash.verdict == 1

    def test_corruption_can_force_acceptance(self, threshold4):
        """Injecting an accepting agent into a too-small population
        stampedes everyone: the false-positive scenario."""
        result = run_with_faults(
            threshold4, 3, [corrupt(0, target_state="2^2")], seed=4, max_steps=200_000
        )
        assert result.converged
        assert result.verdict == 1  # 3 < 4: a lie, caused by the fault

    def test_never_crashes_below_two_agents(self, threshold4):
        result = run_with_faults(threshold4, 4, [crash(0, count=10)], seed=5)
        assert result.survivors >= 2

    def test_clean_run_matches_plain_scheduler(self, threshold4):
        faulty = run_with_faults(threshold4, 6, [], seed=9, max_steps=100_000)
        plain = CountScheduler(threshold4, seed=9).run(6, max_steps=100_000)
        assert faulty.verdict == threshold4.output_of(plain.configuration)


class TestFaultFastForward:
    """Regression: a fault scheduled after stabilisation used to make the
    loop burn no-op interactions all the way to ``max_steps`` and then
    report ``converged=False``."""

    def test_post_convergence_fault_completes_quickly(self, threshold4, monkeypatch):
        steps = []
        real_advance = CountScheduler.advance

        def spy(scheduler, k):
            steps.extend([None] * k)
            return real_advance(scheduler, k)

        monkeypatch.setattr(CountScheduler, "advance", spy)
        fault_at = 50_000
        result = run_with_faults(
            threshold4, 8, [crash(fault_at, count=3)], seed=3, max_steps=1_000_000
        )
        assert result.converged
        assert result.faults_applied == 3
        assert result.faults_skipped == 0
        # the run fast-forwards to the fault and only pays O(n) re-convergence
        # interactions on top — nowhere near the 1,000,000 budget
        assert fault_at <= result.interactions <= fault_at + 5_000
        # the clock jumped to the fault: few real steps, not 50,000 no-ops
        assert len(steps) < 5_000

    def test_fault_beyond_budget_is_skipped_not_spun(self, threshold4):
        result = run_with_faults(
            threshold4, 8, [crash(500_000)], seed=3, max_steps=10_000
        )
        assert result.converged  # the population did stabilise
        assert result.faults_applied == 0
        assert result.faults_skipped == 1
        assert result.interactions < 10_000  # no no-op spin to the budget

    def test_verdict_matches_slow_path(self, threshold4):
        """Fast-forwarding must not change the outcome, only the cost."""
        result = run_with_faults(
            threshold4, 8, [crash(150_000, count=3)], seed=3, max_steps=200_000
        )
        assert result.converged
        assert result.verdict == 1  # acceptance already committed before the crash

    def test_victimless_fault_counts_as_skipped(self, threshold4):
        # no agent is ever in 2^2 at interaction 0
        result = run_with_faults(
            threshold4, 4, [crash(0, count=2, state="2^2")], seed=1, max_steps=100_000
        )
        assert result.faults_applied == 0
        assert result.faults_skipped == 1

    def test_consecutive_post_convergence_faults_all_fire(self, threshold4):
        faults = [crash(10_000), crash(20_000), crash(30_000)]
        result = run_with_faults(threshold4, 10, faults, seed=2, max_steps=1_000_000)
        assert result.converged
        assert result.faults_applied == 3
        assert result.survivors == 7
        assert 30_000 <= result.interactions <= 35_000
