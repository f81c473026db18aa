"""Tests for the performance ledger (``repro.obs.bench`` + ``.ledger``).

Covers the workload registry (suites, determinism of work counts), the
suite runner (artifact schema, env fingerprint, memory pass, the traced
pass's work paths, and the process registries it leaves alone), the
two span folds agreeing on every micro workload, one record per work
count (no workload returns a count a span counter carries), artifact
IO (schema gating), the MAD-based comparison (injected 2x slowdown
flagged, jitter not flagged, exact work-count drift always flagged,
work keys that appear or vanish included), and the ``repro bench run /
compare / baseline / list`` CLI including its exit codes.

To keep the suite fast, most runner tests use a filtered two-workload
slice of the micro suite; one end-to-end test runs the real thing.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cache.store import cache_disabled
from repro.cli import main
from repro.obs import (
    LedgerError,
    SCHEMA_VERSION,
    clear_registry,
    compare_artifacts,
    disable_progress,
    get_metrics,
    get_workload,
    iter_workloads,
    load_artifact,
    registry_snapshot,
    run_suite,
    set_tracer,
    suite_names,
    trace_workload,
    write_artifact,
)
from repro.obs.bench import SUITE_FULL, SUITE_MICRO, Workload, register_workload
from repro.obs.ledger import DEFAULT_BASELINE_PATH, environment_fingerprint

FAST_WORKLOADS = ("saturation.sequence", "certify.section4")


@pytest.fixture(autouse=True)
def _clean_obs_state():
    previous = set_tracer(None)
    disable_progress()
    clear_registry()
    yield
    set_tracer(previous)
    disable_progress()
    clear_registry()


def tiny_suite(repeats: int = 2, **kwargs):
    """The micro suite restricted to two sub-millisecond workloads."""
    return run_suite(
        "micro",
        repeats=repeats,
        workload_filter=lambda w: w.name in FAST_WORKLOADS,
        **kwargs,
    )


class TestRegistry:
    def test_suites(self):
        assert {SUITE_MICRO, SUITE_FULL} <= set(suite_names())
        micro = {w.name for w in iter_workloads(SUITE_MICRO)}
        full = {w.name for w in iter_workloads(SUITE_FULL)}
        assert micro < full  # full strictly extends micro
        assert len(micro) >= 8

    def test_unknown_suite_and_workload(self):
        with pytest.raises(ValueError, match="unknown suite"):
            iter_workloads("nope")
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            register_workload("saturation.sequence")(lambda: {})

    def test_work_counts_are_deterministic(self):
        # The regression-gating contract: same build, same counts.
        for name in FAST_WORKLOADS + ("simulate.count",):
            workload = get_workload(name)
            assert workload.run() == workload.run()

    def test_parallel_workloads_accept_jobs(self):
        workload = get_workload("enumeration.bb2")
        assert workload.parallel
        assert workload.run(jobs=1) == workload.run(jobs=2)


class TestRunSuite:
    def test_artifact_shape(self):
        artifact = tiny_suite()
        assert artifact["kind"] == "repro-bench-ledger"
        assert artifact["schema"] == SCHEMA_VERSION
        assert artifact["suite"] == "micro"
        assert set(artifact["workloads"]) == set(FAST_WORKLOADS)
        env = artifact["env"]
        assert env["python"] and env["platform"] and env["jobs"] == 1
        assert "cpu_count" in env and "git_sha" in env
        for entry in artifact["workloads"].values():
            assert len(entry["times_s"]) == 2
            assert entry["median_s"] >= 0.0
            assert entry["mad_s"] >= 0.0
            assert entry["peak_kb"] is not None
            assert entry["work"]
            assert all(isinstance(v, int) for v in entry["work"].values())

    def test_span_counters_folded_into_work(self):
        artifact = run_suite(
            "micro",
            repeats=1,
            workload_filter=lambda w: w.name == "pottier.realisable_basis",
        )
        entry = artifact["workloads"]["pottier.realisable_basis"]
        # the workload's own count, and the span counters recorded
        # inside the Pottier completion on their path
        assert entry["work"]["basis"] == 10
        assert "frontier_vectors" in entry["work_paths"]["pottier.solve_equalities"]

    def test_no_memory_pass(self):
        artifact = tiny_suite(memory=False)
        for entry in artifact["workloads"].values():
            assert entry["peak_kb"] is None and entry["net_kb"] is None

    def test_rejects_bad_repeats_and_empty_selection(self):
        with pytest.raises(ValueError, match="repeats"):
            run_suite("micro", repeats=0)
        with pytest.raises(LedgerError, match="selected no workloads"):
            run_suite("micro", workload_filter=lambda w: False)

    def test_entries_store_work_paths(self):
        artifact = run_suite(
            "micro",
            repeats=1,
            workload_filter=lambda w: w.name == "pottier.realisable_basis",
        )
        entry = artifact["workloads"]["pottier.realisable_basis"]
        # Each count once: the span counters by path, the workload's
        # own count beside them.
        assert entry["work_paths"] == {
            "pottier.solve_equalities": {
                "frontier_vectors": 60,
                "generations": 10,
                "minimal_solutions": 10,
            }
        }
        assert entry["work"] == {"basis": 10}

    def test_keeps_what_the_process_recorded(self):
        # A recorded `bench run` seals its manifest's cache counts from
        # the change in the cache registry over the run.
        get_metrics("cache").add("hits", 3)
        get_metrics("spans").add("analyze.nodes", 5)
        tiny_suite(repeats=1)
        snapshot = registry_snapshot()
        assert snapshot["cache"]["hits"] == 3
        assert snapshot["spans"] == {"analyze.nodes": 5}

    def test_restores_tracer_and_registry(self):
        from repro.obs import NULL_TRACER, get_tracer, registry_snapshot

        tiny_suite(repeats=1)
        assert get_tracer() is NULL_TRACER
        assert not registry_snapshot().get("spans")


class TestTwoFoldsAgree:
    """The ledger keeps the profile's span counters per path; the
    tracer still folds the same counters into the ``spans`` registry,
    which the e2e harness reads.  Same run, same counters."""

    @pytest.mark.parametrize(
        "name, jobs",
        [(w.name, 1) for w in iter_workloads(SUITE_MICRO)] + [("enumeration.bb2", 2)],
    )
    def test_profile_sums_equal_registry_counters(self, name, jobs, monkeypatch):
        seen = {}
        run = Workload.run

        def spy(self, jobs=1):
            result = run(self, jobs=jobs)
            seen.update(registry_snapshot().get("spans", {}))
            return result

        monkeypatch.setattr(Workload, "run", spy)
        _, profile = trace_workload(get_workload(name), jobs=jobs)
        summed = {}
        for stats in profile.paths.values():
            for counter, value in stats.counters.items():
                key = f"{stats.name}.{counter}"
                summed[key] = summed.get(key, 0) + value
        assert summed == seen


class TestOneRecordPerCount:
    """A work count lives in one place in a ledger entry: no workload
    returns a count that a span counter on one of its paths carries."""

    @pytest.mark.parametrize("name", [w.name for w in iter_workloads(SUITE_MICRO)])
    def test_own_keys_are_not_span_counters(self, name):
        workload = get_workload(name)
        with cache_disabled():
            workload.run()  # the ledger's warm-up: fills the *_warm stores
            own, profile = trace_workload(workload)
        counters = {
            counter for counts in profile.work_counts().values() for counter in counts
        }
        assert not set(own) & counters


class TestArtifactIO:
    def test_round_trip(self, tmp_path):
        artifact = tiny_suite()
        path = str(tmp_path / "BENCH_a.json")
        write_artifact(path, artifact)
        assert load_artifact(path) == json.loads(json.dumps(artifact))

    def test_load_rejects_missing_invalid_and_foreign(self, tmp_path):
        with pytest.raises(LedgerError, match="cannot read"):
            load_artifact(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LedgerError, match="not valid JSON"):
            load_artifact(str(bad))
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(LedgerError, match="not a repro-bench-ledger"):
            load_artifact(str(foreign))

    def test_load_rejects_schema_drift(self, tmp_path):
        artifact = tiny_suite()
        artifact["schema"] = SCHEMA_VERSION + 1
        path = str(tmp_path / "future.json")
        write_artifact(path, artifact)
        with pytest.raises(LedgerError, match="schema"):
            load_artifact(path)

    def test_fingerprint_git_sha(self):
        env = environment_fingerprint(jobs=3)
        assert env["jobs"] == 3
        # running inside this repo: the SHA resolves to 40 hex chars
        assert env["git_sha"] is None or len(env["git_sha"]) == 40


def synthetic_artifact(median_s=0.050, mad_s=0.001, peak_kb=512.0, work=None):
    """A hand-built artifact with one workload, for comparison tests."""
    return {
        "kind": "repro-bench-ledger",
        "schema": SCHEMA_VERSION,
        "suite": "micro",
        "repeats": 5,
        "env": {},
        "workloads": {
            "wl": {
                "median_s": median_s,
                "mad_s": mad_s,
                "times_s": [median_s] * 5,
                "peak_kb": peak_kb,
                "net_kb": 0.0,
                "work": dict(work or {"nodes": 100}),
            }
        },
    }


class TestCompare:
    def test_identical_is_clean(self):
        a = synthetic_artifact()
        report = compare_artifacts(a, copy.deepcopy(a))
        assert report.ok("any") and report.ok("work")
        assert not report.findings

    def test_injected_2x_slowdown_flagged(self):
        base = synthetic_artifact(median_s=0.050)
        slow = synthetic_artifact(median_s=0.100)
        report = compare_artifacts(base, slow)
        assert not report.ok("any")
        (finding,) = report.regressions()
        assert finding.kind == "time" and "2.00x" in finding.detail
        # the shared-runner policy treats wall clock as advisory
        assert report.ok("work")

    def test_improvement_is_note_not_regression(self):
        base = synthetic_artifact(median_s=0.100)
        fast = synthetic_artifact(median_s=0.050)
        report = compare_artifacts(base, fast)
        assert report.ok("any")
        assert any("faster" in f.detail for f in report.findings)

    def test_mad_jitter_not_flagged(self):
        # +30% median but the MADs say the workload is noisy at that
        # scale: 3*(MAD_a+MAD_b) exceeds the delta, so no finding.
        base = synthetic_artifact(median_s=0.050, mad_s=0.010)
        noisy = synthetic_artifact(median_s=0.065, mad_s=0.010)
        report = compare_artifacts(base, noisy)
        assert report.ok("any"), [f.render() for f in report.findings]

    def test_sub_floor_slowdown_not_flagged(self):
        # 2x on a 0.5ms workload is under the absolute floor.
        base = synthetic_artifact(median_s=0.0005, mad_s=0.0)
        slow = synthetic_artifact(median_s=0.0010, mad_s=0.0)
        assert compare_artifacts(base, slow).ok("any")

    def test_work_drift_always_fails(self):
        base = synthetic_artifact(work={"nodes": 100})
        drifted = synthetic_artifact(work={"nodes": 101})
        report = compare_artifacts(base, drifted)
        assert not report.ok("any") and not report.ok("work")
        (finding,) = report.regressions()
        assert finding.kind == "work"
        assert "100 -> 101" in finding.detail

    def test_vanished_work_key_is_drift(self):
        base = synthetic_artifact(
            work={"nodes": 25, "coverability.karp_miller.expansions": 1540}
        )
        new = synthetic_artifact(work={"nodes": 25})
        report = compare_artifacts(base, new)
        assert not report.ok("work")
        (finding,) = report.regressions()
        assert finding.kind == "work"
        assert "coverability.karp_miller.expansions: 1540 -> absent" in finding.detail

    def test_appearing_work_key_is_drift(self):
        base = synthetic_artifact(work={"nodes": 25})
        new = synthetic_artifact(
            work={"nodes": 25, "coverability.karp_miller.expansions": 1540}
        )
        report = compare_artifacts(base, new)
        assert not report.ok("work")
        (finding,) = report.regressions()
        assert finding.kind == "work"
        assert "coverability.karp_miller.expansions: absent -> 1540" in finding.detail

    def test_memory_regression_flagged(self):
        base = synthetic_artifact(peak_kb=1024.0)
        fat = synthetic_artifact(peak_kb=4096.0)
        report = compare_artifacts(base, fat)
        assert not report.ok("any")
        (finding,) = report.regressions()
        assert finding.kind == "memory"
        assert report.ok("work")

    def test_memory_ignored_when_pass_skipped(self):
        base = synthetic_artifact(peak_kb=1024.0)
        skipped = synthetic_artifact(peak_kb=None)
        assert compare_artifacts(base, skipped).ok("any")

    def test_missing_workload_fails_both_policies(self):
        base = synthetic_artifact()
        empty = copy.deepcopy(base)
        empty["workloads"] = {}
        report = compare_artifacts(base, empty)
        assert not report.ok("any") and not report.ok("work")
        (finding,) = report.regressions()
        assert finding.kind == "missing"

    def test_added_workload_is_note(self):
        base = synthetic_artifact()
        extra = copy.deepcopy(base)
        extra["workloads"]["new.wl"] = base["workloads"]["wl"]
        report = compare_artifacts(base, extra)
        assert report.ok("any")
        assert any(f.kind == "added" for f in report.findings)

    def test_schema_mismatch_raises(self):
        base = synthetic_artifact()
        future = synthetic_artifact()
        future["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(LedgerError, match="schema"):
            compare_artifacts(base, future)

    def test_bad_fail_on_rejected(self):
        report = compare_artifacts(synthetic_artifact(), synthetic_artifact())
        with pytest.raises(ValueError, match="fail_on"):
            report.ok("sometimes")

    def test_render_mentions_workload_and_verdict(self):
        base = synthetic_artifact(median_s=0.050)
        slow = synthetic_artifact(median_s=0.200)
        text = compare_artifacts(base, slow, base_path="a.json", new_path="b.json").render()
        assert "a.json" in text and "b.json" in text
        assert "wl" in text and "REGRESSION" in text


class TestBenchCli:
    """The acceptance-criterion path: run, artifact, compare, exit codes."""

    def test_bench_run_produces_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_demo.json")
        code = main(
            ["bench", "run", "--suite", "micro", "--repeats", "2", "--out", out]
        )
        assert code == 0
        assert "workloads" in capsys.readouterr().out
        artifact = load_artifact(out)
        assert artifact["schema"] == SCHEMA_VERSION
        micro = {w.name for w in iter_workloads("micro")}
        assert set(artifact["workloads"]) == micro
        for entry in artifact["workloads"].values():
            assert entry["median_s"] >= 0.0 and entry["mad_s"] >= 0.0
            assert entry["peak_kb"] is not None
            assert entry["work"] or entry["work_paths"]

    def test_compare_flags_injected_slowdown_nonzero_exit(self, tmp_path, capsys):
        base_path = str(tmp_path / "BENCH_base.json")
        slow_path = str(tmp_path / "BENCH_slow.json")
        artifact = tiny_suite(repeats=2)
        # make the anchor workload big enough to clear the absolute
        # floor, then inject the 2x slowdown the criterion names
        anchor = artifact["workloads"]["certify.section4"]
        anchor["median_s"] = max(anchor["median_s"], 0.050)
        anchor["mad_s"] = 0.001
        write_artifact(base_path, artifact)
        slowed = copy.deepcopy(artifact)
        slowed["workloads"]["certify.section4"]["median_s"] *= 2
        write_artifact(slow_path, slowed)

        assert main(["bench", "compare", base_path, slow_path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "2.00x" in out
        # warn-only-on-time policy lets it pass
        assert main(
            ["bench", "compare", base_path, slow_path, "--fail-on", "work"]
        ) == 0

    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_same.json")
        write_artifact(path, tiny_suite(repeats=2))
        assert main(["bench", "compare", path, path]) == 0

    def test_compare_unreadable_artifact_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(
                ["bench", "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
            )

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "enumeration.bb2" in out and "micro" in out
        assert main(["bench", "list", "--suite", "full"]) == 0

    def test_baseline_writes_default_path_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "baseline", "--repeats", "1"])
        assert code == 0
        assert (tmp_path / DEFAULT_BASELINE_PATH).exists()
        artifact = load_artifact(str(tmp_path / DEFAULT_BASELINE_PATH))
        assert artifact["suite"] == "micro"

    def test_validation_rejects_bad_values(self, capsys):
        for argv in (
            ["bench", "run", "--repeats", "0", "--out", "x.json"],
            ["bench", "run", "--repeats", "-3", "--out", "x.json"],
            ["bench", "run", "--jobs", "-1", "--out", "x.json"],
            ["bench", "compare", "a", "b", "--time-threshold", "0"],
            ["bench", "compare", "a", "b", "--time-threshold", "nan"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
            err = capsys.readouterr().err
            assert "error" in err and "Traceback" not in err
