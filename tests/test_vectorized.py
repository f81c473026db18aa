"""Tests for the vectorised trials×states ensemble engine.

Three layers:

* unit tests of :class:`VectorEnsembleScheduler` (validation, invariant
  conservation, rejection/fallback handling, determinism);
* the differential vector-vs-scalar ensemble suite — the two engines
  consume randomness differently, so trajectories are not bit-matched,
  but deterministic outcomes must agree exactly and stochastic ones
  statistically (chi-squared homogeneity via the repo's own
  ``chi_squared_sf``);
* large-population regressions: the exact-integer pair-weight
  arithmetic (populations where float64 subtraction of
  ``n(n-1)``-sized products provably loses the inert mass), and runs
  past the int64 range of ``n(n-1)``, where the engine weighs pairs in
  Python ints.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given

from repro import ProtocolBuilder, binary_threshold, majority_protocol
from repro.cli import main
from repro.core.configuration import is_silent
from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol, Transition
from repro.protocols.leaders import leader_unary_threshold
from repro.simulation import (
    CountScheduler,
    VectorEnsembleScheduler,
    analytic_delta_distribution,
    chi_squared_sf,
    run_ensemble,
)
from repro.simulation.conformance import _chi_squared_test
from repro.simulation.scheduler import _is_silent_consensus
from repro.testing import count_matrices


class TestVectorScheduler:
    def test_trials_validated(self, threshold4):
        with pytest.raises(ValueError):
            VectorEnsembleScheduler(threshold4, trials=0)

    def test_reset_tiles_initial_row(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=5, seed=0)
        scheduler.reset(6)
        assert scheduler.counts.shape == (5, len(threshold4.states))
        assert (scheduler.counts == scheduler.counts[0]).all()
        assert scheduler.population == 6
        assert (scheduler.counts.sum(axis=1) == 6).all()

    def test_population_guard(self, threshold4):
        """A population the int64 count matrix cannot hold is an error
        naming the limit, not numpy's "Python int too large to convert
        to C long" from a cast."""
        scheduler = VectorEnsembleScheduler(threshold4, trials=1, seed=0)
        with pytest.raises(OverflowError, match="int64"):
            scheduler.reset(10**19)

    def test_budget_guard(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=4, seed=0)
        with pytest.raises(OverflowError, match="int64"):
            scheduler.run(6, max_parallel_time=10**20 / 6)

    def test_leap_request_validated(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=3, seed=0)
        scheduler.reset(10)
        with pytest.raises(ValueError):
            scheduler.leap(np.ones(2, dtype=np.int64))  # wrong shape
        with pytest.raises(ValueError):
            scheduler.leap(np.array([1, -1, 1], dtype=np.int64))

    def test_leap_conserves_population_per_trial(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=8, seed=3)
        scheduler.reset(50)
        for _ in range(20):
            advanced = scheduler.leap(np.full(8, 5, dtype=np.int64))
            assert (advanced == 5).all()
            assert (scheduler.counts.sum(axis=1) == 50).all()
            assert (scheduler.counts >= 0).all()

    def test_uneven_requests_honoured(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=4, seed=1)
        scheduler.reset(30)
        request = np.array([0, 1, 7, 25], dtype=np.int64)
        advanced = scheduler.leap(request)
        assert (advanced == request).all()
        # trial 0 asked for nothing: its row must be untouched
        scheduler2 = VectorEnsembleScheduler(threshold4, trials=4, seed=1)
        scheduler2.reset(30)
        assert (scheduler.counts[0] == scheduler2.counts[0]).all()
        # an all-zero request is a no-op for the whole ensemble
        before = scheduler.counts.copy()
        assert (scheduler.leap(np.zeros(4, dtype=np.int64)) == 0).all()
        assert (scheduler.counts == before).all()

    def test_run_deterministic_for_fixed_seed(self, threshold4):
        results = [
            VectorEnsembleScheduler(threshold4, trials=6, seed=42).run(
                40, max_parallel_time=500
            )
            for _ in range(2)
        ]
        assert (results[0].interactions == results[1].interactions).all()
        assert (results[0].converged == results[1].converged).all()
        assert (results[0].parallel_times == results[1].parallel_times).all()
        assert results[0].verdicts == results[1].verdicts

    @pytest.mark.parametrize(
        "protocol, n, verdict",
        [
            (binary_threshold(4), 40, 1),
            (binary_threshold(4), 8, 1),
            (binary_threshold(4), 100_000, 1),
            # a leader collecting 5 inputs sees only 3: converges to reject
            (leader_unary_threshold(5), 3, 0),
            # n(n-1) overflows int64: the leap weighs pairs in Python ints
            (binary_threshold(8), 4 * 10**9, 1),
            (binary_threshold(8), 10**12, 1),
        ],
        ids=[
            "binary4-n40", "binary4-n8", "binary4-n1e5", "leader-unary5-n3",
            "binary8-n4e9", "binary8-n1e12",
        ],
    )
    def test_run_converges_to_correct_verdict(self, protocol, n, verdict):
        result = VectorEnsembleScheduler(protocol, trials=10, seed=0).run(
            n, max_parallel_time=500
        )
        assert result.converged.all()
        assert result.verdicts == (verdict,) * 10
        assert (result.parallel_times > 0).all()

    def test_run_validates_time_budget(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=2, seed=0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                scheduler.run(10, max_parallel_time=bad)

    @pytest.mark.parametrize("n", [10, 4 * 10**9, 10**12])
    def test_rejected_single_step_falls_back_to_exact(self, threshold4, n):
        """A trial whose single-interaction leap is rejected must
        advance via one exact scalar step, leaving the other trials'
        batched path untouched.  Past n ~ 3.04e9 a single draw over
        n(n-1) ordered pairs would leave int64; the exact step draws
        the two agents separately."""

        class _RiggedRng:
            def __init__(self, real, rigged_sample):
                self._real = real
                self._rigged = rigged_sample

            def multinomial(self, n, probabilities):
                if self._rigged is not None:
                    sample, self._rigged = self._rigged, None
                    return sample
                return self._real.multinomial(n, probabilities)

            def __getattr__(self, name):
                return getattr(self._real, name)

        scheduler = VectorEnsembleScheduler(threshold4, trials=2, seed=0)
        scheduler.reset(n)
        # initially only the lowest power state is populated: find a
        # class whose outcome drives some count of the initial row
        # negative, and rig trial 0 to hit it while trial 1 stays inert
        bad_class = next(
            index
            for index, outcomes in enumerate(scheduler._pair_outcomes)
            if any((scheduler.counts[0] + outcome < 0).any() for outcome in outcomes)
        )
        rigged = np.zeros((2, len(scheduler._pair_keys) + 1), dtype=np.int64)
        rigged[0, bad_class] = 1
        rigged[1, -1] = 1  # inert meeting: accepted, nothing changes
        scheduler.rng = _RiggedRng(scheduler.rng, rigged)
        exact_steps = []
        real_exact_step = scheduler._exact_step

        def spy(trial):
            exact_steps.append(trial)
            real_exact_step(trial)

        scheduler._exact_step = spy

        advanced = scheduler.leap(np.ones(2, dtype=np.int64))
        assert (advanced == 1).all()
        assert (scheduler.counts.sum(axis=1) == n).all()
        assert (scheduler.counts >= 0).all()
        assert exact_steps == [0]  # the rigged trial only, once

    def test_exact_step_follows_the_pair_law(self):
        """The fallback step's two-draw pair pick, chi-squared against
        the analytic one-step displacement law (every majority rule is
        enabled in this configuration)."""
        protocol = majority_protocol()
        configuration = Multiset({"A": 3, "B": 2, "a": 2, "b": 1})
        row = np.array(protocol.indexed().encode(configuration), dtype=np.int64)
        scheduler = VectorEnsembleScheduler(protocol, trials=1, seed=0)
        scheduler.reset({"x": 5, "y": 3})
        deltas: Counter = Counter()
        for _ in range(2000):
            scheduler.counts[0] = row
            scheduler._exact_step(0)
            deltas[tuple(int(v) for v in scheduler.counts[0] - row)] += 1
        expected = analytic_delta_distribution(protocol, configuration)
        result = _chi_squared_test("exact-step", "delta", deltas, expected, 2000, 1e-3)
        assert result.passed, result


class TestVectorisedPredicates:
    """The per-row silence/verdict masks against their scalar originals."""

    @given(count_matrices(4, max_trials=5, max_count=12))
    def test_masks_match_scalar_semantics(self, matrix):
        protocol = majority_protocol()
        assert len(protocol.states) == 4
        scheduler = VectorEnsembleScheduler(protocol, trials=matrix.shape[0], seed=0)
        scheduler.counts = matrix
        mask = scheduler.silent_consensus_mask()
        verdicts = scheduler.verdicts()
        for trial in range(matrix.shape[0]):
            configuration = scheduler.configuration(trial)
            assert verdicts[trial] == protocol.output_of(configuration)
            silent = protocol.output_of(configuration) is not None and is_silent(
                protocol, configuration
            )
            assert bool(mask[trial]) == silent
            assert _is_silent_consensus(protocol.indexed(), matrix[trial].tolist()) == silent

    @given(count_matrices(4, max_trials=4, max_count=10))
    def test_masks_match_on_threshold(self, matrix):
        protocol = binary_threshold(4)
        scheduler = VectorEnsembleScheduler(protocol, trials=matrix.shape[0], seed=0)
        scheduler.counts = matrix
        mask = scheduler.silent_consensus_mask()
        verdicts = scheduler.verdicts()
        for trial in range(matrix.shape[0]):
            configuration = scheduler.configuration(trial)
            assert verdicts[trial] == protocol.output_of(configuration)
            silent = protocol.output_of(configuration) is not None and is_silent(
                protocol, configuration
            )
            assert bool(mask[trial]) == silent
            assert _is_silent_consensus(protocol.indexed(), matrix[trial].tolist()) == silent


class TestDifferentialEnsemble:
    """vector vs count engines: same statistics, different samplers."""

    def test_deterministic_outcome_agrees_exactly(self, threshold4):
        expected = None
        for engine in ("count", "vector"):
            result = run_ensemble(
                threshold4, 6, trials=12, max_parallel_time=500, seed=1, engine=engine
            )
            assert result.convergence_rate == 1.0
            assert result.verdict_probability(1) == 1.0
            summary = (result.trials, result.converged, result.verdicts)
            if expected is None:
                expected = summary
            else:
                assert summary == expected

    def test_vector_engine_ignores_jobs(self, threshold4):
        results = [
            run_ensemble(
                threshold4, 8, trials=10, max_parallel_time=500, seed=5,
                jobs=jobs, engine="vector",
            )
            for jobs in (1, 2, 4)
        ]
        for other in results[1:]:
            assert other.verdicts == results[0].verdicts
            assert other.parallel_times == results[0].parallel_times

    def test_count_engine_job_counts_agree(self, threshold4):
        results = [
            run_ensemble(
                threshold4, 6, trials=9, max_parallel_time=500, seed=7,
                jobs=jobs, engine="count",
            )
            for jobs in (1, 2, 4)
        ]
        for other in results[1:]:
            assert other.verdicts == results[0].verdicts
            assert other.parallel_times == results[0].parallel_times

    def test_coin_verdicts_statistically_consistent(self):
        """Chi-squared homogeneity of the verdict tallies: the coin
        martingale's consensus value is genuinely random (and its tied
        pair fires two rules, exercising the vector engine's batched
        nondeterministic split), so the two engines must sample the
        same verdict distribution."""
        protocol = (
            ProtocolBuilder("coin")
            .state("h", output=1)
            .state("t", output=0)
            .rule("h", "t", "h", "h")
            .rule("h", "t", "t", "t")
            .input("x", "h")
            .input("y", "t")
            .build()
        )
        inputs = {"x": 6, "y": 6}
        trials = 80
        count = run_ensemble(
            protocol, inputs, trials=trials, max_parallel_time=200, seed=11,
            engine="count",
        )
        vector = run_ensemble(
            protocol, inputs, trials=trials, max_parallel_time=200, seed=11,
            engine="vector",
        )
        assert count.convergence_rate == 1.0
        assert vector.convergence_rate == 1.0
        # 2x2 homogeneity test on (engine) x (verdict == 1)
        a = count.verdicts.get(1, 0)
        b = vector.verdicts.get(1, 0)
        table = np.array([[a, trials - a], [b, trials - b]], dtype=np.float64)
        row = table.sum(axis=1, keepdims=True)
        col = table.sum(axis=0, keepdims=True)
        expected = row * col / table.sum()
        assert (expected > 0).all()
        statistic = float(((table - expected) ** 2 / expected).sum())
        assert chi_squared_sf(statistic, 1) >= 1e-3

    def test_invalid_engine_rejected(self, threshold4):
        with pytest.raises(ValueError, match="engine"):
            run_ensemble(threshold4, 6, trials=4, engine="warp")

    def test_invalid_time_budget_rejected(self, threshold4):
        for bad in (0.0, -3.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                run_ensemble(threshold4, 6, trials=4, max_parallel_time=bad)


def _two_state_gap_protocol() -> PopulationProtocol:
    """States ``a, b`` with transitions on ``(a,a)`` and ``(a,b)`` only.

    With counts ``(n-2, 2)`` the inert mass is *exactly*
    ``2 / (n(n-1))`` — the ``(b,b)`` meetings of the two b-agents — an
    algebraic identity that float64 subtraction of the ``~n^2``-sized
    weights provably cannot reproduce once ``n(n-1)`` passes ``2^53``.
    """
    return PopulationProtocol(
        states=("a", "b"),
        transitions=(
            Transition("a", "a", "a", "a"),
            Transition("a", "b", "a", "b"),
        ),
        leaders=Multiset(),
        input_mapping={"x": "a", "y": "b"},
        output={"a": 1, "b": 0},
        name="gap2",
    )


class TestLargePopulationPrecision:
    N = 10**9

    def test_float64_provably_loses_the_inert_mass(self):
        """The premise of the fix: at n = 10^9 the float64 subtraction
        used before returns 0, not the true inert weight 2."""
        n = self.N
        total = n * (n - 1)
        w_aa = (n - 2) * (n - 3)
        w_ab = 4 * (n - 2)
        assert total - w_aa - w_ab == 2  # exact integer identity
        assert float(total) - float(w_aa) - float(w_ab) != 2.0

    @pytest.mark.parametrize("n", [10**9, 4 * 10**9, 10**12])
    def test_vector_pair_distribution_is_exact(self, n):
        scheduler = VectorEnsembleScheduler(
            _two_state_gap_protocol(), trials=2, seed=0
        )
        scheduler.reset({"x": n - 2, "y": 2})
        keys, probabilities, inert = scheduler.pair_distribution()
        assert inert == 2 / (n * (n - 1))
        assert inert > 0.0
        by_key = dict(zip(keys, probabilities))
        assert by_key[("a", "a")] == (n - 2) * (n - 3) / (n * (n - 1))
        assert by_key[("a", "b")] == 4 * (n - 2) / (n * (n - 1))


class TestBudgetRegressions:
    def test_small_positive_budget_performs_an_interaction(self, threshold4):
        """Regression: int() truncation turned max_parallel_time=0.01 on
        a small population into a zero-interaction 'result'."""
        result = VectorEnsembleScheduler(threshold4, trials=1, seed=0).run(
            8, max_parallel_time=0.01
        )
        assert result.interactions[0] >= 1

    def test_count_scheduler_rejects_bad_max_steps(self, threshold4):
        scheduler = CountScheduler(threshold4, seed=0)
        with pytest.raises(ValueError):
            scheduler.run(8, max_steps=0)
        with pytest.raises(ValueError):
            scheduler.run(8, max_steps=-5)

    def test_cli_rejects_zero_max_steps(self):
        with pytest.raises(SystemExit):
            main(["simulate", "binary:4", "--input", "6", "--max-steps", "0"])

    def test_cli_rejects_vector_without_trials(self):
        with pytest.raises(SystemExit):
            main(["simulate", "binary:4", "--input", "6", "--engine", "vector"])


class TestCliVectorEngine:
    def test_vector_batch_json(self, capsys):
        import json

        code = main(
            [
                "simulate", "binary:4", "--input", "6", "--trials", "8",
                "--engine", "vector", "--seed", "3", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "vector"
        assert payload["trials"] == 8
        assert payload["convergence_rate"] == 1.0
        assert payload["verdicts"] == {"1": 8}

    @pytest.mark.parametrize(
        "argv",
        [
            ["binary:4", "--input", "6", "--trials", "4", "--max-steps", str(10**20)],
            ["binary:8", "--input", str(10**19), "--trials", "2"],
        ],
        ids=["budget", "population"],
    )
    def test_int64_overflow_is_an_error(self, argv, capsys):
        code = main(["simulate", *argv, "--engine", "vector"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "int64" in err
