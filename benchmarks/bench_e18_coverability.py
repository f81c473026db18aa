"""E18 — sharded/quotiented/resumable Karp–Miller: the size wall falls.

The classic Karp–Miller walk re-explores every permutation of a
symmetric branch: at ``flat:8`` the 45-node tree costs 13,668 branch
expansions level-synchronously (and 464,821 in the original
per-branch DFS).  The frontier engine (``repro.reachability.frontier``)
symmetry-quotients the visited set, shards each frontier round over
the worker pool, and checkpoints round boundaries into the analysis
cache.  E18 measures the two shipped ledger workloads:

* ``coverability.sharded_cold`` — quotient-dedup construction at
  ``flat:8``; the ``coverability.karp_miller`` span counters must show
  the collapse (one expansion per surviving node instead of hundreds
  of thousands);
* ``coverability.sharded_resume`` — a checkpointing run killed at a
  tiny node budget, then resumed to completion; the resumed run must
  start from recovered state (``resumed_expansions > 0``), and both
  paths must agree with the known flat:7 tree (25 nodes, 1 limit).

The driver also times one *plain* (unquotiented) flat:8 construction
inline for the headline speedup table; that number is informational —
the hard gates are the deterministic work counts.
"""

from __future__ import annotations

import time

from repro.fmt import render_table, section
from repro.obs import run_suite
from repro.obs.bench import SUITE_MICRO

FLAT8_PLAIN_EXPANSIONS = 13_668


def coverability_artifact(repeats: int = 3) -> dict:
    return run_suite(
        SUITE_MICRO,
        repeats=repeats,
        memory=False,
        workload_filter=lambda w: w.name.startswith("coverability."),
    )


def _plain_flat8_seconds() -> float:
    from repro.protocols import flat_threshold
    from repro.reachability.coverability import OMEGA
    from repro.reachability.frontier import KarpMillerFrontier
    from repro.reachability.pseudo import input_state

    protocol = flat_threshold(8)
    indexed = protocol.indexed()
    x_index = indexed.index[input_state(protocol)]
    root = tuple(OMEGA if i == x_index else 0 for i in range(indexed.n))
    started = time.perf_counter()
    result = KarpMillerFrontier(protocol, [root], node_budget=200_000).run()
    elapsed = time.perf_counter() - started
    assert result.stats.expansions == FLAT8_PLAIN_EXPANSIONS, (
        f"plain flat:8 expansion count drifted: {result.stats.expansions}"
    )
    return elapsed


def test_e18_quotient_collapses_flat8(benchmark):
    artifact = benchmark.pedantic(coverability_artifact, rounds=1, iterations=1)
    workloads = artifact["workloads"]

    cold = workloads["coverability.sharded_cold"]
    tree = cold["work_paths"]["coverability.karp_miller"]
    # The collapse: the quotient engine performs one expansion per
    # surviving node — the plain walk performs ~13.7k.
    assert tree["nodes"] == 45
    assert tree["limits"] == 1
    assert tree["expansions"] == 45
    assert tree["dedup_hits"] > 0

    plain_s = _plain_flat8_seconds()
    speedup = plain_s / max(cold["median_s"], 1e-9)

    # The resume drives the frontier directly (no Karp–Miller span), so
    # its tree sizes are the workload's own counts.
    resume = workloads["coverability.sharded_resume"]
    assert resume["work"]["nodes"] == 25
    assert resume["work"]["limits"] == 1
    assert resume["work"]["checkpoints"] > 0
    assert resume["work"]["resumed_expansions"] > 0

    print(section("E18 — Karp–Miller engine: quotient collapse + resume"))
    print(
        render_table(
            ["workload", "median", "expansions", "note"],
            [
                [
                    "flat:8 plain",
                    f"{plain_s * 1e3:.0f}ms",
                    str(FLAT8_PLAIN_EXPANSIONS),
                    "plain symmetric re-exploration",
                ],
                [
                    "flat:8 quotient",
                    f"{cold['median_s'] * 1e3:.0f}ms",
                    str(tree["expansions"]),
                    f"{speedup:.0f}x faster, identical clover",
                ],
                [
                    "flat:7 kill+resume",
                    f"{resume['median_s'] * 1e3:.0f}ms",
                    f"resumed at {resume['work']['resumed_expansions']}",
                    f"{resume['work']['checkpoints']} checkpoints written",
                ],
            ],
        )
    )
