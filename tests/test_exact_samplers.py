"""The exact sampler draws the same interactions on every commit.

Golden regeneration
-------------------

``tests/golden/exact_samplers.json`` pins seeded output of every caller
of the exact sampler, :class:`CountScheduler`: its first 200
:class:`StepOutcome` s, seeded ``run`` results to silence and under a
budget, count-engine ensembles at one and two jobs,
``measure_convergence``, exact ``record_time_series`` and
``record_trace``, and ``run_with_faults`` with a crash and a
corruption.  The file carries a ``version`` field checked against
:data:`SAMPLER_GOLDEN_VERSION` below, mirroring
``REPORT_GOLDEN_VERSION`` in ``tests/test_report.py``: whenever the
sampler deliberately draws differently (a new pair order, a different
use of the random stream), bump ``SAMPLER_GOLDEN_VERSION`` here and
regenerate the golden with::

    PYTHONPATH=src:. python -c \
        "from tests.test_exact_samplers import regenerate_golden; regenerate_golden()"

then eyeball the diff: a speed-up of the sampler must leave it empty.

Besides the golden, :class:`_ReferenceCountSampler` is the count sampler
as it was written before the pair-outcome table (a per-pair dictionary of
states ordered by name, two nested scans over the counts): its outcome
stream must equal :meth:`CountScheduler.step` on every two-state
protocol and on the nondeterministic, incomplete approximate majority.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Tuple

import pytest

from repro import approximate_majority, binary_threshold, majority_protocol
from repro.bounds.enumeration import all_deterministic_protocols
from repro.core.configuration import is_silent
from repro.core.multiset import Multiset
from repro.protocols.leaders import leader_unary_threshold
from repro.reachability.graph import ReachabilityGraph
from repro.simulation import (
    corrupt,
    crash,
    measure_convergence,
    record_time_series,
    record_trace,
    run_ensemble,
    run_with_faults,
)
from repro.simulation.scheduler import CountScheduler, StepOutcome, _is_silent_consensus

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "exact_samplers.json")
SAMPLER_GOLDEN_VERSION = 1

# name -> (protocol constructor, inputs)
PROTOCOLS = {
    "binary:8": (lambda: binary_threshold(8), 20),
    "majority": (majority_protocol, {"x": 7, "y": 5}),
    "approx-majority": (approximate_majority, {"x": 6, "y": 5}),
    "leader-unary:3": (lambda: leader_unary_threshold(3), 5),
}
STEPS = 200
BUDGET = 61  # one past a multiple of most populations: the last chunk is one interaction


def _configuration(configuration: Multiset) -> Dict[str, int]:
    return {str(state): count for state, count in configuration.items()}


def _outcome(outcome: StepOutcome) -> list:
    return [*map(str, outcome.pre), *map(str, outcome.post), outcome.changed]


def _run(result) -> dict:
    return {
        "interactions": result.interactions,
        "population": result.population,
        "converged": result.converged,
        "configuration": _configuration(result.configuration),
    }


def _ensemble(result) -> dict:
    return {
        "trials": result.trials,
        "converged": result.converged,
        "verdicts": {str(v): c for v, c in result.verdicts.items()},
        "parallel_times": list(result.parallel_times),
    }


def _golden_cases() -> Dict[str, object]:
    """Every pinned case, computed afresh."""
    cases: Dict[str, object] = {}
    for name, (build, inputs) in PROTOCOLS.items():
        protocol = build()
        scheduler = CountScheduler(protocol, seed=1)
        scheduler.reset(inputs)
        cases[f"steps/count/{name}"] = [_outcome(scheduler.step()) for _ in range(STEPS)]
        cases[f"run/count/{name}/silence"] = _run(
            CountScheduler(protocol, seed=2).run(inputs, max_steps=200_000)
        )
        cases[f"run/count/{name}/budget"] = _run(
            CountScheduler(protocol, seed=3).run(inputs, max_steps=BUDGET)
        )
    threshold = binary_threshold(8)
    for jobs in (1, 2):
        cases[f"ensemble/binary:8/jobs{jobs}"] = _ensemble(
            run_ensemble(threshold, 40, trials=6, max_parallel_time=200.0, seed=3, jobs=jobs)
        )
        cases[f"ensemble/approx-majority/jobs{jobs}"] = _ensemble(
            run_ensemble(
                approximate_majority(), {"x": 9, "y": 7}, trials=5,
                max_parallel_time=60.0, seed=11, jobs=jobs,
            )
        )
    stats = measure_convergence(threshold, 30, trials=4, seed=2)
    cases["convergence/binary:8"] = {
        "population": stats.population,
        "trials": stats.trials,
        "mean_parallel_time": stats.mean_parallel_time,
        "stdev_parallel_time": stats.stdev_parallel_time,
        "max_parallel_time": stats.max_parallel_time,
        "all_converged": stats.all_converged,
    }
    for name, protocol, inputs, horizon in (
        ("binary:8", threshold, 40, 200.0),
        ("majority", majority_protocol(), {"x": 9, "y": 8}, 3.0),
    ):
        series = record_time_series(protocol, inputs, horizon, resolution=0.5, seed=5)
        cases[f"time_series/{name}"] = {
            "times": series.times,
            "samples": [_configuration(sample) for sample in series.samples],
        }
    for name, (build, inputs) in PROTOCOLS.items():
        trace = record_trace(build(), inputs, max_steps=400, seed=4)
        cases[f"trace/{name}"] = [
            [*map(str, event.pre), *map(str, event.post)] for event in trace.events
        ]
    for name, faults in (
        ("crash", [crash(25, count=3), crash(90, state="2^1")]),
        ("corrupt", [corrupt(30, "2^3", count=2), corrupt(70, "zero", state="2^0")]),
    ):
        result = run_with_faults(threshold, 14, faults, max_steps=50_000, seed=6)
        cases[f"faults/{name}"] = {
            "configuration": _configuration(result.configuration),
            "interactions": result.interactions,
            "converged": result.converged,
            "faults_applied": result.faults_applied,
            "survivors": result.survivors,
            "verdict": result.verdict,
            "faults_skipped": result.faults_skipped,
        }
    return cases


def regenerate_golden():
    """Rewrite tests/golden/exact_samplers.json (see module docstring).

    One case per line, so a diff names the cases that drifted.
    """
    cases = _golden_cases()
    lines = [f"{json.dumps(name)}: {json.dumps(cases[name], sort_keys=True)}" for name in sorted(cases)]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(f'{{"version": {SAMPLER_GOLDEN_VERSION}, "cases": {{\n')
        handle.write(",\n".join(lines))
        handle.write("\n}}\n")


class TestGoldenDraws:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture(scope="class")
    def fresh(self):
        # A JSON round trip turns tuples into lists, as in the file.
        return json.loads(json.dumps(_golden_cases()))

    def test_version_pinned(self, golden, fresh):
        assert golden["version"] == SAMPLER_GOLDEN_VERSION, (
            "exact sampler golden version drifted: if the samplers draw "
            "differently on purpose, bump SAMPLER_GOLDEN_VERSION and "
            "regenerate tests/golden/exact_samplers.json (see module docstring)"
        )
        assert set(golden["cases"]) == set(fresh)

    def test_cases_match_golden(self, golden, fresh):
        drifted = sorted(name for name in fresh if fresh[name] != golden["cases"][name])
        assert not drifted, (
            f"seeded sampler output drifted from the committed golden: {drifted}; "
            "if intended, bump SAMPLER_GOLDEN_VERSION and regenerate (see "
            "module docstring)"
        )


class _ReferenceCountSampler:
    """The count sampler before the pair-outcome table, kept as an oracle."""

    def __init__(self, protocol, seed):
        self.indexed = protocol.indexed()
        self.table: Dict[tuple, List[tuple]] = {}
        for t in protocol.transitions:
            self.table.setdefault((t.p, t.q), []).append((t.p2, t.q2))
        self.rng = random.Random(seed)
        self.counts: List[int] = []

    def reset(self, inputs) -> None:
        self.counts = list(self.indexed.initial_counts(inputs))

    def _outcome(self, p, q) -> Tuple[object, object]:
        key = (p, q) if str(p) <= str(q) else (q, p)
        choices = self.table.get(key)
        if choices is None:
            return (p, q)
        if len(choices) == 1:
            return choices[0]
        return self.rng.choice(choices)

    def step(self) -> StepOutcome:
        counts = self.counts
        states = self.indexed.states
        n = sum(counts)
        pick = self.rng.randrange(n * (n - 1))
        p_index = q_index = -1
        cumulative = 0
        for i, ci in enumerate(counts):
            if ci == 0:
                continue
            row = ci * (n - 1)
            if pick < cumulative + row:
                p_index = i
                second = (pick - cumulative) % (n - 1)
                running = 0
                for j, cj in enumerate(counts):
                    avail = cj - (1 if j == i else 0)
                    if second < running + avail:
                        q_index = j
                        break
                    running += avail
                break
            cumulative += row
        p, q = states[p_index], states[q_index]
        p2, q2 = self._outcome(p, q)
        counts[p_index] -= 1
        counts[q_index] -= 1
        counts[self.indexed.index[p2]] += 1
        counts[self.indexed.index[q2]] += 1
        return StepOutcome(
            pre=(p, q), post=(p2, q2), changed=Multiset([p, q]) != Multiset([p2, q2])
        )


def _reference_protocols():
    yield from all_deterministic_protocols(2)
    yield approximate_majority()


def _reference_inputs(protocol, sizes):
    if len(protocol.variables) == 1:
        return list(sizes)
    return [{"x": x, "y": size - x} for size in sizes for x in range(size + 1)]


class TestReferenceSampler:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_outcome_stream(self, seed):
        for protocol in _reference_protocols():
            inputs = 7 if len(protocol.variables) == 1 else {"x": 4, "y": 3}
            reference = _ReferenceCountSampler(protocol, seed)
            scheduler = CountScheduler(protocol, seed=seed)
            reference.reset(inputs)
            scheduler.reset(inputs)
            for _ in range(60):
                assert scheduler.step() == reference.step(), protocol.name
            assert scheduler.counts == reference.counts


class TestSilenceOnCounts:
    def test_agrees_with_multiset_form(self):
        """The count form of the silence check against the Multiset form."""
        checked = 0
        for protocol in _reference_protocols():
            indexed = protocol.indexed()
            roots = [indexed.initial_counts(v) for v in _reference_inputs(protocol, range(2, 9))]
            for counts in ReachabilityGraph.from_roots(protocol, roots).nodes:
                configuration = indexed.decode(counts)
                expected = protocol.output_of(configuration) is not None and is_silent(
                    protocol, configuration
                )
                assert _is_silent_consensus(indexed, counts) == expected, (protocol.name, counts)
                checked += 1
        assert checked > 216 * 7
