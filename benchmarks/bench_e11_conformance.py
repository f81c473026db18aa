"""E11 — scheduler conformance: the samplers agree with the semantics.

The parallel-time experiments (E9, E10) trust three different samplers
of one stochastic semantics.  E11 is the trust anchor: every scheduler
is chi-squared-tested against the *analytic* one-step distribution,
swept for trajectory invariants under fixed seeds, and the two exact
samplers are differentially compared under matched seeds.  The
tau-leap engine's closed-form pair distribution is additionally
compared against the analytic one exactly (max abs error 0).

This gate is the template for every future fast backend: a new sampler
joins the ladder only once it passes the same report.
"""

from __future__ import annotations

import pytest

from repro import binary_threshold, flat_threshold, majority_protocol
from repro.fmt import render_table, section
from repro.simulation import check_conformance

CASES = [
    ("majority", majority_protocol(), {"x": 5, "y": 3}),
    ("binary:4", binary_threshold(4), 8),
    ("flat:3", flat_threshold(3), 7),
]


def test_e11_conformance_timing(benchmark):
    protocol = majority_protocol()
    report = benchmark(
        check_conformance,
        protocol,
        {"x": 5, "y": 3},
        samples=400,
        trajectory_steps=100,
        matched_seeds=(0,),
    )
    assert report.ok, report.render()
    # Capture how much sampling sits behind the timing: the perf
    # trajectory then records work done, not just wall clock.
    benchmark.extra_info["seed"] = report.seed
    benchmark.extra_info["trajectory_interactions"] = sum(
        t.steps_checked for t in report.trajectories
    )


def test_e11_report():
    rows = []
    for name, protocol, inputs in CASES:
        report = check_conformance(protocol, inputs)
        assert report.ok, report.render()
        worst_p = min(r.p_value for r in report.first_step)
        checked = sum(t.steps_checked for t in report.trajectories)
        rows.append(
            [
                name,
                report.population,
                report.samples,
                f"{worst_p:.3f}",
                f"{report.vector_distribution_error:.1e}",
                checked,
                "PASS" if report.ok else "FAIL",
            ]
        )
    print(section("E11 — scheduler conformance (chi-squared + invariant sweeps)"))
    print(
        render_table(
            ["protocol", "n", "samples", "min p-value", "leap dist err", "steps checked", "verdict"],
            rows,
        )
    )
