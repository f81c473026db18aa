"""E18 — the Karp–Miller engine: one expansion per configuration, resumable.

The classic Karp–Miller walk re-expands a configuration once per
branch that derives it: at ``flat:8`` the 45-node tree cost 13,668
branch expansions level-synchronously (and 464,821 in the original
per-branch DFS).  The frontier engine (``repro.reachability.frontier``)
expands each configuration once, up to the root-fixing automorphisms,
shards each frontier round over the worker pool, and checkpoints round
boundaries into the analysis cache.  E18 measures the two shipped
ledger workloads:

* ``coverability.sharded_cold`` — the construction at ``flat:8``; the
  ``coverability.karp_miller`` span counters must show one expansion
  per node;
* ``coverability.sharded_resume`` — a checkpointing run killed at a
  tiny node budget, then resumed to completion; the resumed run must
  start from recovered state (``resumed_expansions > 0``), and both
  paths must agree with the known flat:7 tree (25 nodes, 1 limit).

The hard gates are the deterministic work counts; the printed times
are informational.
"""

from __future__ import annotations

from repro.fmt import render_table, section
from repro.obs import run_suite
from repro.obs.bench import SUITE_MICRO


def coverability_artifact(repeats: int = 3) -> dict:
    return run_suite(
        SUITE_MICRO,
        repeats=repeats,
        memory=False,
        workload_filter=lambda w: w.name.startswith("coverability."),
    )


def test_e18_one_expansion_per_node(benchmark):
    artifact = benchmark.pedantic(coverability_artifact, rounds=1, iterations=1)
    workloads = artifact["workloads"]

    cold = workloads["coverability.sharded_cold"]
    tree = cold["work_paths"]["coverability.karp_miller"]
    # One expansion per node; the classic walk performed 13,668.
    assert tree["nodes"] == 45
    assert tree["limits"] == 1
    assert tree["expansions"] == 45
    assert tree["dedup_hits"] > 0

    # The resume drives the frontier directly (no Karp–Miller span), so
    # its tree sizes are the workload's own counts.
    resume = workloads["coverability.sharded_resume"]
    assert resume["work"]["nodes"] == 25
    assert resume["work"]["limits"] == 1
    assert resume["work"]["checkpoints"] > 0
    assert resume["work"]["resumed_expansions"] > 0

    print(section("E18 — Karp–Miller engine: one expansion per node + resume"))
    print(
        render_table(
            ["workload", "median", "expansions", "note"],
            [
                [
                    "flat:8",
                    f"{cold['median_s'] * 1e3:.0f}ms",
                    str(tree["expansions"]),
                    f"{tree['dedup_hits']} dedup hits, {tree['nodes']} nodes",
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
