"""E10 — simulator throughput: the "too slow for large populations" ladder.

Reproduction-brief context: pure-Python per-interaction simulation
cannot reach chemically interesting population sizes.  This bench
quantifies the ladder: the exact count-based sampler and the tau-leap
engine at one trial, in interactions/second and in wall-clock time to
a fixed amount of parallel time.
"""

from __future__ import annotations

import time

import pytest

from repro import binary_threshold
from repro.fmt import render_table, section
from repro.simulation import CountScheduler, VectorEnsembleScheduler

PROTOCOL = binary_threshold(8)


def drive_count(n: int, interactions: int) -> dict:
    # Advance n interactions at a time, the way `run` does between its
    # silence checks: no per-interaction StepOutcome.
    scheduler = CountScheduler(PROTOCOL, seed=0)
    scheduler.reset(n)
    for start in range(0, interactions, n):
        scheduler.advance(min(n, interactions - start))
    return {"interactions": interactions}


def drive_tau_leap(n: int, interactions: int) -> dict:
    scheduler = VectorEnsembleScheduler(PROTOCOL, trials=1, seed=0)
    scheduler.reset(n)
    done = 0
    leap = scheduler.leap_size
    while done < interactions:
        done += int(scheduler.leap([min(leap, interactions - done)])[0])
    return {"interactions": done}


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_e10_count(benchmark, n):
    # extra_info records the work done (not just wall clock), so the
    # stored benchmark JSON can distinguish "got faster" from "did less".
    benchmark.extra_info.update(benchmark(drive_count, n, 5_000))


@pytest.mark.parametrize("n", [10_000, 100_000, 1_000_000])
def test_e10_tau_leap(benchmark, n):
    benchmark.extra_info.update(benchmark(drive_tau_leap, n, 5 * n))


def test_e10_report():
    rows = []
    for n in (1_000, 10_000, 100_000):
        budget = 2 * n  # two units of parallel time
        row = [n, budget]
        for driver in (drive_count, drive_tau_leap):
            t0 = time.perf_counter()
            driver(n, budget)
            row.append(f"{time.perf_counter() - t0:.3f}s")
        rows.append(row)
    print(section("E10 — simulator ladder: wall clock for 2 units of parallel time"))
    print(render_table(["n", "interactions", "count-based", "tau-leap"], rows))
    # The tau-leap engine must dominate at scale.
    t0 = time.perf_counter()
    drive_tau_leap(1_000_000, 1_000_000)
    leap_big = time.perf_counter() - t0
    print(f"tau-leap at n=10^6: 10^6 interactions in {leap_big:.2f}s")
    assert leap_big < 30
