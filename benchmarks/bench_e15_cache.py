"""E15 — the content-addressed analysis cache: warm-vs-cold speedups.

The cache (``repro.cache``) keys analysis results on a renaming- and
reordering-invariant protocol fingerprint plus the call parameters, so
a repeated ``repro analyze``/``repro certify`` pays one JSON decode
instead of a Karp–Miller or Pottier recomputation.  E15 measures that
trade on the same workload pairs the ledger ships
(``cache.karp_miller_{cold,warm}``, ``cache.pottier_{cold,warm}``):

* times each pair via the ledger's measurement protocol (the cold run
  faces an empty store created per repetition; the warm run decodes a
  disk entry with the memory tier off);
* asserts the warm median is at least 5x below the cold one — the
  acceptance bar the CI ledger job also gates on;
* prints the speedup table plus the exact hit/miss work counts (the
  ``cache.lookup`` span's counters), which double as correctness
  anchors (a warm run that recomputes shows up as a work-count drift,
  not just a slow run).
"""

from __future__ import annotations

from repro.fmt import render_table, section
from repro.obs import run_suite
from repro.obs.bench import SUITE_MICRO

PAIRS = ("karp_miller", "pottier")


def cache_artifact(repeats: int = 3) -> dict:
    return run_suite(
        SUITE_MICRO,
        repeats=repeats,
        memory=False,
        workload_filter=lambda w: w.name.startswith("cache."),
    )


def test_e15_warm_vs_cold(benchmark):
    artifact = benchmark.pedantic(cache_artifact, rounds=1, iterations=1)
    workloads = artifact["workloads"]

    rows = []
    for pair in PAIRS:
        cold = workloads[f"cache.{pair}_cold"]
        warm = workloads[f"cache.{pair}_warm"]
        warm_lookup = warm["work_paths"]["cache.lookup"]
        hits, misses = warm_lookup.get("hit", 0), warm_lookup.get("miss", 0)
        speedup = cold["median_s"] / max(warm["median_s"], 1e-9)
        rows.append(
            [
                pair,
                f"{cold['median_s'] * 1e3:.2f}ms",
                f"{warm['median_s'] * 1e3:.2f}ms",
                f"{speedup:.0f}x",
                f"{hits}/{misses}",
            ]
        )
        # The reproduction bar: a warm lookup must beat the computation
        # by at least 5x on both shipped pairs.
        assert warm["median_s"] * 5 <= cold["median_s"], (
            f"{pair}: warm {warm['median_s']}s not 5x under cold {cold['median_s']}s"
        )
        assert hits == 1
        assert misses == 0
        assert cold["work_paths"]["cache.lookup"].get("miss", 0) == 1

    print(section("E15 — analysis cache: cold compute vs warm decode"))
    print(
        render_table(
            ["pair", "cold median", "warm median", "speedup", "warm hit/miss"],
            rows,
        )
    )
