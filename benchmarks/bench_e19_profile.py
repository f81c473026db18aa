"""E19 — differential work profiles: aggregation cost and blame quality.

The profile layer (``repro.obs.profile``) turns a recorded span forest
into a deterministic per-path aggregate.  The ledger's traced pass
(``repro.obs.ledger.trace_workload``) stores that aggregate's work
counts in every entry, and ``bench compare`` diffs them path by path,
so a drift names its own span path without running anything.  Both
sit on the CI critical path (every ``bench run`` and every red
``bench compare``), so E19 pins:

* **Aggregation throughput** — ``build_profile`` over the synthetic
  sharded-frontier trace the ``obs.profile_aggregate`` ledger workload
  uses (1000 spans, 360 of them pool/task plumbing), and the ledger's
  traced pass over a real workload (``enumeration.bb2``), asserting
  the deterministic path/splice counts each time.
* **Serial ≡ parallel profiles** — the work-count profile of a traced
  workload is bit-identical at ``jobs`` 1 and 2 (the repo's
  determinism contract, measured rather than assumed).
* **Blame quality** — a deterministically perturbed ``simulate.count``
  (``CountScheduler.run`` capped under the convergence point), recorded
  by the ledger,
  must show its span drift at the ``simulate.run`` path and nowhere
  else, from the two entries alone, just like in the profile-smoke CI
  job.
"""

from __future__ import annotations

from repro.fmt import render_table, section
from repro.obs import compare_artifacts, profile as prof, run_suite, trace_workload
from repro.obs.bench import _synthetic_frontier_trace, get_workload
from repro.simulation import CountScheduler


def test_e19_aggregate_synthetic_frontier(benchmark):
    spans = _synthetic_frontier_trace()
    profile = benchmark(prof.build_profile, spans)
    assert profile.span_count == 640
    assert profile.spliced_count == 360
    assert set(profile.paths) == {
        ("frontier.expand",),
        ("frontier.expand", "cache.lookup"),
    }


def test_e19_trace_real_workload(benchmark):
    _, profile = benchmark.pedantic(
        trace_workload,
        args=(get_workload("enumeration.bb2"),),
        rounds=1,
        iterations=1,
    )
    assert profile.work_counts()["bounds.busy_beaver"]["enumerated"] == 216


def test_e19_profiles_identical_across_jobs():
    workload = get_workload("enumeration.bb2")
    serial_work, serial = trace_workload(workload, jobs=1)
    parallel_work, parallel = trace_workload(workload, jobs=2)
    assert serial_work == parallel_work
    assert serial.work_counts() == parallel.work_counts()


def _ledger_entry(monkeypatch, cap=None):
    if cap is not None:
        run = CountScheduler.run
        monkeypatch.setattr(
            CountScheduler,
            "run",
            lambda self, inputs, max_steps: run(self, inputs, min(max_steps, cap)),
        )
    artifact = run_suite(
        "micro",
        repeats=1,
        memory=False,
        workload_filter=lambda w: w.name == "simulate.count",
    )
    monkeypatch.undo()
    return artifact


def test_e19_compare_names_perturbed_path(monkeypatch, benchmark):
    base = _ledger_entry(monkeypatch)
    new = _ledger_entry(monkeypatch, cap=1600)
    report = benchmark.pedantic(
        compare_artifacts, args=(base, new), rounds=1, iterations=1
    )
    span_drift = [f.detail for f in report.findings if "work drift at" in f.detail]
    assert span_drift == [
        "work drift at simulate.run (interactions: 3200 -> 1600, silent_checks: 9 -> 5)"
    ]


def test_e19_report():
    rows = []
    spans = _synthetic_frontier_trace()
    profile = prof.build_profile(spans)
    rows.append(
        [
            "synthetic frontier",
            len(spans),
            profile.span_count,
            len(profile.paths),
            profile.spliced_count,
        ]
    )
    _, traced = trace_workload(get_workload("enumeration.bb2"))
    rows.append(
        [
            "enumeration.bb2 (traced)",
            traced.span_count + traced.spliced_count,
            traced.span_count,
            len(traced.paths),
            traced.spliced_count,
        ]
    )
    print(section("E19 — work-profile aggregation (spans → paths)"))
    print(
        render_table(
            ["trace", "input spans", "work spans", "paths", "spliced"], rows
        )
    )
