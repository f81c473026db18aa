"""Scheduler conformance: check every sampler against the semantics.

The repo ships two samplers of the *same* stochastic semantics —
:class:`~repro.simulation.scheduler.CountScheduler` (exact count-based
sampling) and
:class:`~repro.simulation.vectorized.VectorEnsembleScheduler`
(tau-leaping over a whole trials×states ensemble matrix) — plus a
fault-injecting runner on top.  Every
parallel-time claim reproduced from the paper (Section 2's semantics,
the ``O(n log n)`` convergence of [6] measured in E9/E10) is only as
trustworthy as these samplers, and every future fast backend must be
held to the same standard.  This module is that standard: each sampler
is checked against a closed-form law, never against another sampler.

The law: in a configuration ``C`` with ``n`` agents, the probability
that the next interaction involves the unordered state pair ``{p, q}``
is ``C(p) C(q) * 2 / (n(n-1))`` for ``p != q`` and
``C(p)(C(p)-1) / (n(n-1))`` for ``p = q``; for nondeterministic
protocols each transition of the pair then fires with equal
probability.  :func:`analytic_pair_distribution` and
:func:`analytic_delta_distribution` compute it exactly.  The harness
runs two checks against it:

1. **Chi-squared first-step tests.**  Each sampler repeatedly samples
   its first step from the initial configuration; the observed pair
   (exact sampler) and displacement (both samplers) frequencies are
   chi-squared-tested against the analytic distribution, with a
   pure-Python survival function (no scipy dependency).  The tau-leap
   engine's closed-form pair distribution is also compared with the
   law exactly.

2. **Seeded trajectory sweeps.**  Fixed-seed runs of both samplers are
   checked step by step: population conservation, non-negative counts,
   legal configurations, and (for the exact sampler) that every
   reported interaction was enabled and fired a registered transition.

The result is a machine-readable :class:`ConformanceReport` — the
standing correctness gate (experiment E11, ``repro conformance`` on
the CLI) for the simulation stack.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol, _pair
from ..obs import get_tracer
from ..parallel import TaskEnvelope, run_tasks
from .scheduler import CountScheduler
from .vectorized import VectorEnsembleScheduler

__all__ = [
    "ChiSquaredResult",
    "TrajectoryCheck",
    "ConformanceReport",
    "analytic_pair_distribution",
    "analytic_delta_distribution",
    "chi_squared_sf",
    "check_conformance",
]

State = Hashable
PairKey = Tuple[State, State]
DeltaKey = Tuple[int, ...]


# ----------------------------------------------------------------------
# Analytic one-step distributions
# ----------------------------------------------------------------------


def analytic_pair_distribution(configuration: Multiset) -> Dict[PairKey, float]:
    """Exact distribution of the unordered state pair of the next meeting.

    Categories with probability zero are omitted; the returned
    probabilities sum to 1 up to floating-point rounding.
    """
    n = configuration.size
    if n < 2:
        raise ConfigurationError("pair distribution needs at least two agents")
    total = float(n) * float(n - 1)
    items = [(s, c) for s, c in configuration.items() if c > 0]
    distribution: Dict[PairKey, float] = {}
    for a, (s, c) in enumerate(items):
        if c >= 2:
            distribution[_pair(s, s)] = c * (c - 1) / total
        for t, d in items[a + 1 :]:
            distribution[_pair(s, t)] = 2.0 * c * d / total
    return distribution


def analytic_delta_distribution(
    protocol: PopulationProtocol, configuration: Multiset
) -> Dict[DeltaKey, float]:
    """Exact distribution of the one-step displacement (dense tuple).

    Marginalises the pair distribution through the transition relation
    with uniform tie-breaking among the transitions of a pair; pairs
    without a registered transition contribute to the zero
    displacement.  This is the distribution every conforming sampler's
    single step must follow, observable without access to which agents
    actually met — so it applies to the tau-leap engine too.
    """
    indexed = protocol.indexed()
    outcomes: Dict[PairKey, List[DeltaKey]] = {}
    for t_index, t in enumerate(protocol.transitions):
        outcomes.setdefault((t.p, t.q), []).append(indexed.deltas[t_index])
    zero: DeltaKey = (0,) * indexed.n
    distribution: Dict[DeltaKey, float] = {}
    for pair, probability in analytic_pair_distribution(configuration).items():
        deltas = outcomes.get(pair, [zero])
        share = probability / len(deltas)
        for delta in deltas:
            distribution[delta] = distribution.get(delta, 0.0) + share
    return distribution


# ----------------------------------------------------------------------
# Chi-squared machinery (pure Python, no scipy)
# ----------------------------------------------------------------------


def chi_squared_sf(statistic: float, dof: int) -> float:
    """Survival function of the chi-squared distribution.

    ``P(X >= statistic)`` for ``X ~ chi2(dof)``, via the regularized
    upper incomplete gamma function ``Q(dof/2, statistic/2)`` (series
    below ``a + 1``, Lentz continued fraction above — the standard
    special-function split).
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if statistic <= 0.0:
        return 1.0
    return _upper_regularized_gamma(dof / 2.0, statistic / 2.0)


def _upper_regularized_gamma(a: float, x: float) -> float:
    if x < a + 1.0:
        return max(0.0, 1.0 - _lower_gamma_series(a, x))
    return _upper_gamma_fraction(a, x)


def _gamma_prefactor(a: float, x: float) -> float:
    return math.exp(-x + a * math.log(x) - math.lgamma(a))


def _lower_gamma_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    rank = a
    for _ in range(500):
        rank += 1.0
        term *= x / rank
        total += term
        if abs(term) < abs(total) * 1e-14:
            break
    return total * _gamma_prefactor(a, x)


def _upper_gamma_fraction(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h * _gamma_prefactor(a, x)


@dataclass(frozen=True)
class ChiSquaredResult:
    """One empirical-vs-analytic goodness-of-fit test."""

    scheduler: str
    kind: str  # "pair" (which states met) or "delta" (what changed)
    samples: int
    statistic: float
    dof: int
    p_value: float
    passed: bool
    stray: Tuple[str, ...] = ()  # observed categories of probability zero

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "kind": self.kind,
            "samples": self.samples,
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "passed": self.passed,
            "stray": list(self.stray),
        }


def _chi_squared_test(
    scheduler: str,
    kind: str,
    observed: Mapping[object, int],
    expected_probabilities: Mapping[object, float],
    samples: int,
    significance: float,
) -> ChiSquaredResult:
    """Pearson chi-squared with pooling of low-expectation categories.

    Categories whose expected count falls below 5 are pooled into one
    bucket (the textbook validity condition); any observation outside
    the analytic support is an outright failure regardless of the
    statistic — a conforming sampler can never produce an impossible
    step.
    """
    stray = tuple(
        sorted(str(cat) for cat, hits in observed.items() if hits and cat not in expected_probabilities)
    )
    buckets: List[Tuple[float, float]] = []  # (observed, expected)
    pool_observed = 0.0
    pool_expected = 0.0
    for category, probability in expected_probabilities.items():
        expected = probability * samples
        hits = observed.get(category, 0)
        if expected < 5.0:
            pool_observed += hits
            pool_expected += expected
        else:
            buckets.append((float(hits), expected))
    if pool_expected > 0.0:
        buckets.append((pool_observed, pool_expected))
    dof = len(buckets) - 1
    statistic = sum((o - e) ** 2 / e for o, e in buckets if e > 0.0)
    p_value = chi_squared_sf(statistic, dof) if dof >= 1 else 1.0
    return ChiSquaredResult(
        scheduler=scheduler,
        kind=kind,
        samples=samples,
        statistic=statistic,
        dof=dof,
        p_value=p_value,
        passed=(p_value >= significance) and not stray,
        stray=stray,
    )


# ----------------------------------------------------------------------
# First-step sampling per scheduler
# ----------------------------------------------------------------------


def _delta_of_outcome(pre: PairKey, post: PairKey, index: Mapping[State, int], n: int) -> DeltaKey:
    delta = [0] * n
    delta[index[pre[0]]] -= 1
    delta[index[pre[1]]] -= 1
    delta[index[post[0]]] += 1
    delta[index[post[1]]] += 1
    return tuple(delta)


def _sample_exact_first_steps(protocol: PopulationProtocol, inputs, samples: int, seed: int):
    """Pair and displacement frequencies of the count sampler's first step.

    The initial counts are encoded once and copied before each sample:
    ``reset`` draws no randomness, so the draws are those of a reset
    per sample.
    """
    scheduler = CountScheduler(protocol, seed=seed)
    indexed = scheduler.indexed
    initial = indexed.initial_counts(inputs)
    pairs: Counter = Counter()
    deltas: Counter = Counter()
    for _ in range(samples):
        scheduler.counts = list(initial)
        outcome = scheduler.step()
        pairs[_pair(*outcome.pre)] += 1
        deltas[_delta_of_outcome(outcome.pre, outcome.post, indexed.index, indexed.n)] += 1
    return pairs, deltas


def _sample_vector_first_steps(
    scheduler: VectorEnsembleScheduler, inputs, samples: int
) -> Counter:
    """Displacement frequencies of one-interaction rounds, one per trial.

    The vector engine's natural sampling unit is a whole-ensemble
    round, so ``samples`` i.i.d. first steps are exactly one
    ``leap(ones)`` over a ``samples``-trial matrix — the same batched
    code path production runs take.
    """
    import numpy as np

    scheduler.reset(inputs)
    before = scheduler.counts.copy()
    scheduler.leap(np.ones(scheduler.trials, dtype=np.int64))
    deltas: Counter = Counter()
    for row in (scheduler.counts - before):
        deltas[tuple(int(v) for v in row)] += 1
    return deltas


def _exact_pair_error(
    pair_distribution: Tuple[Sequence[PairKey], Sequence[float], float],
    analytic: Mapping[PairKey, float],
) -> float:
    """Max abs deviation of a scheduler's closed-form pair distribution.

    The tau-leap engine exposes its sampling distribution as
    ``(keys, probabilities, inert)``; a conforming engine must match the
    analytic pair law exactly (up to one or two ulps of the final
    division), not just statistically.
    """
    keys, probabilities, inert = pair_distribution
    error = 0.0
    registered_mass = 0.0
    for key, probability in zip(keys, probabilities):
        expected = analytic.get(key, 0.0)
        registered_mass += expected
        error = max(error, abs(float(probability) - expected))
    return max(error, abs(inert - (1.0 - registered_mass)))


# ----------------------------------------------------------------------
# Trajectory invariants
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryCheck:
    """Invariant sweep of seeded trajectories for one scheduler."""

    scheduler: str
    seeds: Tuple[int, ...]
    steps_checked: int
    violations: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "seeds": list(self.seeds),
            "steps_checked": self.steps_checked,
            "violations": list(self.violations),
            "passed": self.passed,
        }


def _check_exact_trajectories(
    protocol: PopulationProtocol,
    inputs,
    seeds: Sequence[int],
    steps: int,
) -> TrajectoryCheck:
    """Invariant sweep of the count sampler, checked per reported step."""
    allowed: Dict[PairKey, set] = {}
    for t in protocol.transitions:
        allowed.setdefault((t.p, t.q), set()).add(_pair(t.p2, t.q2))
    legal_states = set(protocol.states)
    violations: List[str] = []
    checked = 0

    for seed in seeds:
        scheduler = CountScheduler(protocol, seed=seed)
        scheduler.reset(inputs)
        expected = scheduler.configuration
        population = expected.size
        for step_index in range(steps):
            outcome = scheduler.step()
            checked += 1
            where = f"count seed={seed} step={step_index}"
            pre = _pair(*outcome.pre)
            post = _pair(*outcome.post)
            if not expected >= Multiset([pre[0], pre[1]]):
                violations.append(f"{where}: pair {pre} not available in configuration")
            options = allowed.get(pre)
            if options is None:
                if post != pre:
                    violations.append(f"{where}: unregistered pair {pre} changed into {post}")
            elif post not in options:
                violations.append(f"{where}: outcome {post} not a registered transition of {pre}")
            expected = expected - Multiset([pre[0], pre[1]]) + Multiset([post[0], post[1]])
            actual = scheduler.configuration
            if actual != expected:
                violations.append(f"{where}: configuration diverged from the reported step")
                expected = actual  # resynchronise; report once per divergence
            if actual.size != population:
                violations.append(f"{where}: population changed {population} -> {actual.size}")
            if not actual.support() <= legal_states:
                violations.append(f"{where}: illegal states {actual.support() - legal_states}")
            if min(scheduler.counts) < 0:
                violations.append(f"{where}: negative state count")
            if len(violations) >= 10:
                break
        if len(violations) >= 10:
            break
    return TrajectoryCheck(
        scheduler="count", seeds=tuple(seeds), steps_checked=checked, violations=tuple(violations)
    )


def _check_vector_trajectories(
    protocol: PopulationProtocol,
    inputs,
    seeds: Sequence[int],
    steps: int,
    leap_size: int,
    trials: int = 4,
) -> TrajectoryCheck:
    """Invariant sweep of the vector engine: per trial, per round.

    Population conservation, non-negative counts, and legal support
    are asserted for *every trial row* after *every* leap round, and
    ``leap(k)`` must advance every trial by exactly ``k``.
    """
    import numpy as np

    legal_states = set(protocol.states)
    violations: List[str] = []
    checked = 0
    for seed in seeds:
        scheduler = VectorEnsembleScheduler(protocol, trials=trials, seed=seed)
        scheduler.reset(inputs)
        population = scheduler.population
        done = 0
        while done < steps:
            chunk = min(leap_size, steps - done)
            advanced = scheduler.leap(np.full(trials, chunk, dtype=np.int64))
            checked += int(advanced.sum())
            where = f"vector seed={seed} interaction={done}"
            if (advanced != chunk).any():
                violations.append(f"{where}: leap({chunk}) under-delivered")
            done += chunk
            sums = scheduler.counts.sum(axis=1)
            if (sums != population).any():
                bad = int(np.nonzero(sums != population)[0][0])
                violations.append(
                    f"{where}: trial {bad} population changed "
                    f"{population} -> {int(sums[bad])}"
                )
            if (scheduler.counts < 0).any():
                violations.append(f"{where}: negative state count")
            for trial in range(trials):
                support = scheduler.configuration(trial).support()
                if not support <= legal_states:
                    violations.append(
                        f"{where}: trial {trial} illegal states {support - legal_states}"
                    )
            if len(violations) >= 10:
                break
        if len(violations) >= 10:
            break
    return TrajectoryCheck(
        scheduler="vector", seeds=tuple(seeds), steps_checked=checked, violations=tuple(violations)
    )


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConformanceReport:
    """Machine-readable verdict of a full conformance run."""

    protocol: str
    population: int
    samples: int
    significance: float
    first_step: Tuple[ChiSquaredResult, ...]
    vector_distribution_error: float
    vector_distribution_ok: bool
    trajectories: Tuple[TrajectoryCheck, ...]
    seed: Optional[int] = None
    jobs: int = 1

    @property
    def ok(self) -> bool:
        return (
            all(r.passed for r in self.first_step)
            and self.vector_distribution_ok
            and all(t.passed for t in self.trajectories)
        )

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "population": self.population,
            "samples": self.samples,
            "significance": self.significance,
            # The root RNG seed and worker count make the artifact
            # self-describing: the exact run can be reproduced (results
            # are jobs-independent by contract).
            "seed": self.seed,
            "jobs": self.jobs,
            "first_step": [r.to_dict() for r in self.first_step],
            "vector_distribution_error": self.vector_distribution_error,
            "vector_distribution_ok": self.vector_distribution_ok,
            "trajectories": [t.to_dict() for t in self.trajectories],
            "ok": self.ok,
        }

    def render(self) -> str:
        """A console rendering of the full report."""
        from ..fmt import render_table

        lines = [
            f"conformance report: {self.protocol} "
            f"(n={self.population}, {self.samples} first-step samples, "
            f"significance {self.significance:g})",
            "",
            "first-step distributions (chi-squared vs analytic):",
        ]
        rows = [
            [
                r.scheduler,
                r.kind,
                f"{r.statistic:.2f}",
                r.dof,
                f"{r.p_value:.3f}",
                "ok" if r.passed else "FAIL" + (f" stray={list(r.stray)}" if r.stray else ""),
            ]
            for r in self.first_step
        ]
        lines.append(render_table(["scheduler", "kind", "statistic", "dof", "p-value", "verdict"], rows))
        lines.append(
            f"vector leap distribution vs analytic: max abs error "
            f"{self.vector_distribution_error:.2e} "
            f"({'ok' if self.vector_distribution_ok else 'FAIL'})"
        )
        lines.append("")
        lines.append("trajectory invariant sweeps:")
        rows = [
            [
                t.scheduler,
                len(t.seeds),
                t.steps_checked,
                "ok" if t.passed else f"FAIL ({len(t.violations)} violations)",
            ]
            for t in self.trajectories
        ]
        lines.append(render_table(["scheduler", "seeds", "interactions checked", "verdict"], rows))
        for t in self.trajectories:
            for violation in t.violations:
                lines.append(f"  ! {violation}")
        lines.append("")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _SweepSettings:
    """Everything a conformance sub-check needs, picklable as one blob."""

    protocol: PopulationProtocol
    inputs: object
    samples: int
    significance: float
    seed: int
    trajectory_seeds: Tuple[int, ...]
    trajectory_steps: int
    leap_size: int


def _conformance_task(task: TaskEnvelope):
    """One conformance sub-check; returns its value.

    The sub-checks are the per-sampler seeded sweeps of the suite —
    each is self-contained (builds its own samplers from the settings
    blob, with the same seeds the serial path uses), so fanning them
    out over workers cannot change any verdict.
    """
    kind, settings = task.payload
    if kind == "first_step_exact":
        analytic = _analytic_first_step(settings)
        pairs, deltas = _sample_exact_first_steps(
            settings.protocol, settings.inputs, settings.samples, settings.seed
        )
        return (
            _chi_squared_test(
                "count", "pair", pairs, analytic[0], settings.samples,
                settings.significance,
            ),
            _chi_squared_test(
                "count", "delta", deltas, analytic[1], settings.samples,
                settings.significance,
            ),
        )
    if kind == "first_step_vector":
        analytic = _analytic_first_step(settings)
        vector = VectorEnsembleScheduler(
            settings.protocol, trials=settings.samples, seed=settings.seed
        )
        vector_deltas = _sample_vector_first_steps(
            vector, settings.inputs, settings.samples
        )
        chi = _chi_squared_test(
            "vector", "delta", vector_deltas, analytic[1], settings.samples,
            settings.significance,
        )
        # The engine's sampling distribution is available in closed
        # form: compare it against the analytic law exactly, not
        # just statistically.
        vector.reset(settings.inputs)
        error = _exact_pair_error(vector.pair_distribution(), analytic[0])
        return (chi, error, error < 1e-9)
    if kind == "trajectory_exact":
        return _check_exact_trajectories(
            settings.protocol, settings.inputs, settings.trajectory_seeds,
            settings.trajectory_steps,
        )
    if kind == "trajectory_vector":
        return _check_vector_trajectories(
            settings.protocol, settings.inputs, settings.trajectory_seeds,
            settings.trajectory_steps, leap_size=settings.leap_size,
        )
    raise ValueError(f"unknown conformance task kind {kind!r}")  # pragma: no cover


def _analytic_first_step(settings: _SweepSettings):
    initial = settings.protocol.initial_configuration(settings.inputs)
    return (
        analytic_pair_distribution(initial),
        analytic_delta_distribution(settings.protocol, initial),
    )


def check_conformance(
    protocol: PopulationProtocol,
    inputs,
    *,
    samples: int = 2000,
    significance: float = 1e-3,
    trajectory_seeds: Sequence[int] = (0, 1, 2),
    trajectory_steps: int = 300,
    seed: int = 0,
    jobs: int = 1,
) -> ConformanceReport:
    """Run the full conformance suite on one protocol and input.

    Deterministic for fixed arguments (all randomness is seeded), so a
    passing configuration keeps passing — the thresholds are tuned for
    the sample counts, not re-rolled per run.  ``jobs > 1`` fans the
    per-sampler sweeps out over a process pool; every sub-check carries
    its own explicit seeds, so the report is identical for any worker
    count (the differential suite asserts it field by field).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if trajectory_steps < 1:
        raise ValueError(f"trajectory_steps must be >= 1, got {trajectory_steps}")
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    if not trajectory_seeds:
        raise ValueError("trajectory_seeds must name at least one seed")
    initial = protocol.initial_configuration(inputs)
    settings = _SweepSettings(
        protocol=protocol,
        inputs=inputs,
        samples=samples,
        significance=significance,
        seed=seed,
        trajectory_seeds=tuple(trajectory_seeds),
        trajectory_steps=trajectory_steps,
        leap_size=max(1, initial.size // 10),
    )
    kinds = ("first_step_exact", "first_step_vector", "trajectory_exact", "trajectory_vector")

    with get_tracer().span(
        "conformance.check",
        protocol=protocol.name,
        population=initial.size,
        seed=seed,
        jobs=jobs,
    ):
        envelopes = run_tasks(
            _conformance_task, [(kind, settings) for kind in kinds],
            jobs=jobs, label="conformance",
        )
        count_chi, (vector_chi, vector_error, vector_ok), *trajectories = (
            envelope.value for envelope in envelopes
        )

    return ConformanceReport(
        protocol=protocol.name,
        population=initial.size,
        samples=samples,
        significance=significance,
        first_step=(*count_chi, vector_chi),
        vector_distribution_error=vector_error,
        vector_distribution_ok=vector_ok,
        trajectories=tuple(trajectories),
        seed=seed,
        jobs=jobs,
    )
