"""Differential work profiles (``repro.obs.profile``).

The profile model's load-bearing promise is *determinism*: aggregation
is a commutative fold over finished spans, so the profile is invariant
under span arrival order (exporters flush out of order; workers race)
and under parallel-worker shard adoption (``parallel.pool`` /
``parallel.task`` plumbing is spliced out, so ``--jobs 1/2/4`` yield
the same work-count profile for the same seed).  The hypothesis suite
asserts both, the golden fixture pins the diff output against an
injected synthetic regression, and the attribution tests drive
``bench compare`` end-to-end on an artifact the ledger recorded with
the deterministic perturbation hook in the ``simulate.count`` workload
— the compare diffs the stored work paths path by path, so each
finding names its own path, and runs nothing.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.obs import (
    SCHEMA_VERSION,
    compare_artifacts,
    load_artifact,
    profile as prof,
    run_suite,
    trace_workload,
)
from repro.obs.bench import Workload, get_workload
from repro.simulation import CountScheduler
from repro.obs.summary import SpanRecord, load_trace, trace_summary

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _span(name, sid, parent, dur, counters=None, attrs=None, start=0.0, depth=0):
    return {
        "name": name,
        "id": sid,
        "parent": parent,
        "depth": depth,
        "start_us": float(start),
        "dur_us": float(dur),
        "attrs": attrs or {},
        "counters": counters or {},
    }


_NAMES = ("frontier.expand", "cache.lookup", "pottier.step", "simulate.run")
_COUNTERS = ("expansions", "nodes", "hits")


@st.composite
def span_forests(draw):
    """Random well-formed span forests with integer durations.

    Integer-valued durations keep float summation exact, so the
    reorder-invariance assertion can demand bit-identical artifacts
    rather than approximate equality.
    """
    count = draw(st.integers(min_value=1, max_value=24))
    spans = []
    for index in range(count):
        parent = None
        if index and draw(st.booleans()):
            parent = draw(st.integers(min_value=1, max_value=index))
        spans.append(
            _span(
                draw(st.sampled_from(_NAMES)),
                index + 1,
                parent,
                draw(st.integers(min_value=0, max_value=10_000)),
                draw(
                    st.dictionaries(
                        st.sampled_from(_COUNTERS),
                        st.integers(min_value=0, max_value=50),
                        max_size=2,
                    )
                ),
                start=draw(st.integers(min_value=0, max_value=100_000)),
            )
        )
    return spans


class TestAggregation:
    def test_known_tree_paths_and_self_time(self):
        spans = [
            _span("a", 1, None, 100, {"x": 5}),
            _span("b", 2, 1, 60, {"y": 2}),
            _span("b", 3, 1, 20),
        ]
        profile = prof.build_profile(spans)
        assert set(profile.paths) == {("a",), ("a", "b")}
        a = profile.paths[("a",)]
        assert a.total_us == 100.0
        assert a.self_us == 20.0  # 100 - (60 + 20) from the two children
        b = profile.paths[("a", "b")]
        assert b.count == 2
        assert b.total_us == 80.0
        assert b.counters == {"y": 2}
        assert profile.work_counts() == {"a": {"x": 5}, "a;b": {"y": 2}}

    def test_plumbing_spliced_out_of_paths(self):
        spans = [
            _span("work", 1, None, 1000, {"n": 1}),
            _span("parallel.pool", 2, 1, 900),
            _span("parallel.task", 3, 2, 800),
            _span("inner", 4, 3, 700, {"n": 7}),
        ]
        profile = prof.build_profile(spans)
        assert set(profile.paths) == {("work",), ("work", "inner")}
        assert profile.spliced_count == 2
        assert profile.span_count == 2
        # Self time still honours the RAW tree: the pool is `work`'s
        # only direct child, so work's self time is 1000 - 900.
        assert profile.paths[("work",)].self_us == 100.0

    def test_orphans_root_their_subtree(self):
        spans = [
            _span("lost", 1, 999, 50, {"n": 3}),
            _span("child", 2, 1, 10),
        ]
        profile = prof.build_profile(spans)
        assert profile.orphan_count == 1
        assert set(profile.paths) == {("lost",), ("lost", "child")}

    def test_cycle_in_corrupt_trace_does_not_hang(self):
        spans = [
            _span("a", 1, 2, 10, {"n": 1}),
            _span("b", 2, 1, 10),
        ]
        profile = prof.build_profile(spans)
        # Both spans survive, rooted somewhere, with the counter intact.
        assert profile.span_count == 2
        assert sum(
            c.get("n", 0) for c in profile.work_counts().values()
        ) == 1

    def test_repeated_span_ids_keep_their_own_names(self):
        # Two concatenated trace files: span ids restart at 1.
        spans = [
            _span("a", 1, None, 10, {"n": 1}),
            _span("child", 2, 1, 4),
            _span("b", 1, None, 20, {"n": 2}),
        ]
        profile = prof.build_profile(spans)
        assert {path[-1] for path in profile.paths} == {"a", "b", "child"}
        assert profile.paths[("b",)].counters == {"n": 2}
        summary = trace_summary([SpanRecord.from_dict(s) for s in spans])
        assert sorted(row["name"] for row in summary["rows"]) == ["a", "b", "child"]

    def test_empty_trace(self):
        profile = prof.build_profile([])
        assert profile.paths == {}
        assert profile.span_count == 0

    @given(span_forests(), st.randoms(use_true_random=False))
    def test_invariant_under_arrival_order(self, spans, rng):
        shuffled = list(spans)
        rng.shuffle(shuffled)
        original = prof.profile_to_dict(prof.build_profile(spans))
        permuted = prof.profile_to_dict(prof.build_profile(shuffled))
        assert original == permuted

    @given(span_forests())
    def test_work_counts_invariant_under_shard_adoption(self, spans):
        """Wrapping the forest in pool/task plumbing changes nothing.

        This is exactly what ``run_tasks`` does at ``--jobs N``: worker
        shards re-export their spans under ``parallel.pool`` →
        ``parallel.task`` containers with fresh ids.
        """
        offset = 10_000
        pool = _span("parallel.pool", offset + 1, None, 0, attrs={"jobs": 2})
        task = _span("parallel.task", offset + 2, offset + 1, 0, attrs={"task": 0})
        adopted = [pool, task]
        for span in spans:
            moved = dict(span)
            moved["id"] = span["id"] + offset + 2
            moved["parent"] = (
                offset + 2
                if span["parent"] is None
                else span["parent"] + offset + 2
            )
            adopted.append(moved)
        direct = prof.build_profile(spans)
        wrapped = prof.build_profile(adopted)
        assert direct.work_counts() == wrapped.work_counts()
        assert direct.span_count == wrapped.span_count
        assert wrapped.spliced_count == direct.spliced_count + 2


class TestArtifactIO:
    def test_write_load_round_trip(self, tmp_path):
        profile = prof.build_profile(
            [_span("a", 1, None, 100, {"x": 5}), _span("b", 2, 1, 60)],
            meta={"workload": "t"},
        )
        path = str(tmp_path / "p.json")
        prof.write_profile(path, profile)
        loaded = prof.load_profile(path)
        assert prof.profile_to_dict(loaded) == prof.profile_to_dict(profile)

    def test_load_profile_auto_detects_trace_files(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "w") as handle:
            handle.write(json.dumps(dict(_span("a", 1, None, 5), type="span")) + "\n")
        loaded = prof.load_profile(trace)
        assert set(loaded.paths) == {("a",)}
        assert loaded.meta["source_trace"] == trace

    def test_load_rejects_newer_schema(self, tmp_path):
        path = str(tmp_path / "p.json")
        with open(path, "w") as handle:
            json.dump({"kind": prof.PROFILE_KIND, "schema": 99, "paths": {}}, handle)
        with pytest.raises(prof.ProfileError, match="schema"):
            prof.load_profile(path)

    def test_folded_stacks(self):
        profile = prof.build_profile(
            [_span("a", 1, None, 100, {"x": 5}), _span("b", 2, 1, 60)]
        )
        lines = prof.to_folded(profile).splitlines()
        assert lines == ["a 40", "a;b 60"]
        by_counter = prof.to_folded(profile, metric="x").splitlines()
        assert by_counter == ["a 5"]

    def test_speedscope_document_is_consistent(self):
        profile = prof.build_profile(
            [_span("a", 1, None, 100), _span("b", 2, 1, 60)]
        )
        document = prof.to_speedscope(profile)
        frames = document["shared"]["frames"]
        inner = document["profiles"][0]
        assert len(inner["samples"]) == len(inner["weights"])
        for stack in inner["samples"]:
            for frame_index in stack:
                assert 0 <= frame_index < len(frames)
        assert inner["endValue"] == sum(inner["weights"])


class TestDiff:
    def _golden(self, name):
        return prof.build_profile(load_trace(os.path.join(GOLDEN, name)))

    def test_golden_injected_regression_is_attributed(self):
        base = self._golden("profile_base.jsonl")
        regressed = self._golden("profile_regressed.jsonl")
        diff = prof.diff_profiles(base, regressed)
        assert diff.work_drift()
        guilty = "analyze;analyze.certificates;pipeline.section4;coverability.karp_miller"
        assert {f.where for f in diff.findings} == {guilty}
        assert {f.kind for f in diff.findings} == {"work", "time"}
        work = next(f for f in diff.findings if f.kind == "work")
        assert "expansions: 119 -> 239" in work.detail
        assert "nodes: 120 -> 240" in work.detail
        rendered = diff.render()
        assert guilty in rendered
        assert "work drift" in rendered

    def test_identical_profiles_have_no_findings(self):
        base = self._golden("profile_base.jsonl")
        again = self._golden("profile_base.jsonl")
        diff = prof.diff_profiles(base, again)
        assert diff.findings == []
        assert not diff.work_drift()
        assert "no significant differences" in diff.render()

    def test_added_path_is_regression_only_with_work(self):
        base = prof.build_profile([_span("a", 1, None, 10)])
        with_work = prof.build_profile(
            [_span("a", 1, None, 10), _span("b", 2, 1, 5, {"n": 1})]
        )
        diff = prof.diff_profiles(base, with_work)
        assert diff.work_drift()
        timed_only = prof.build_profile(
            [_span("a", 1, None, 10), _span("b", 2, 1, 5)]
        )
        diff = prof.diff_profiles(base, timed_only)
        assert not diff.work_drift()
        assert [f.kind for f in diff.findings] == ["added"]
        assert not diff.findings[0].regression

    def test_time_jitter_below_floor_never_fires(self):
        base = prof.build_profile([_span("a", 1, None, 1000)])
        jittered = prof.build_profile([_span("a", 1, None, 1900)])
        # +90% but under the 2ms absolute floor: not significant.
        assert prof.diff_profiles(base, jittered).findings == []


class TestJobsDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_work_count_profile_identical_across_jobs(self, jobs):
        workload = get_workload("enumeration.bb2")
        work, profile = trace_workload(workload, jobs=jobs)
        baseline_work, baseline = trace_workload(workload, jobs=1)
        assert work == baseline_work
        assert profile.work_counts() == baseline.work_counts()

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            trace_workload(get_workload("no.such.workload"))


SEED_BASELINE = os.path.join(
    os.path.dirname(GOLDEN), "..", "benchmarks", "baselines", "BENCH_seed.json"
)


def _ledger(entries):
    """A schema-current artifact holding only what the compare reads."""
    return {
        "schema": SCHEMA_VERSION,
        "workloads": {
            name: {"median_s": 0.01, "mad_s": 0.0, **entry}
            for name, entry in entries.items()
        },
    }


def _artifact(interactions, converged):
    return _ledger(
        {
            "simulate.count": {
                "work": {"converged": converged},
                "work_paths": {"simulate.run": {"interactions": interactions}},
            }
        }
    )


def _work_findings(base, new):
    return [f for f in compare_artifacts(base, new).findings if f.kind == "work"]


def _perturbed_seed(monkeypatch):
    """The seed baseline with ``simulate.count`` re-recorded by the
    ledger with ``CountScheduler.run`` capped at 1600 steps, under the
    workload's pinned-seed convergence point of 3200 interactions (the
    profile-smoke CI scenario)."""
    run = CountScheduler.run
    monkeypatch.setattr(
        CountScheduler,
        "run",
        lambda self, inputs, max_steps: run(self, inputs, min(max_steps, 1600)),
    )
    fresh = run_suite(
        "micro",
        repeats=1,
        memory=False,
        workload_filter=lambda w: w.name == "simulate.count",
    )
    monkeypatch.setattr(CountScheduler, "run", run)
    seed = load_artifact(SEED_BASELINE)
    perturbed = json.loads(json.dumps(seed))
    perturbed["workloads"]["simulate.count"] = fresh["workloads"]["simulate.count"]
    return seed, perturbed


def _forbid_workload_runs(monkeypatch):
    def spy(self, jobs=1):
        raise AssertionError(f"workload {self.name} ran during the compare")

    monkeypatch.setattr(Workload, "run", spy)


class TestAttribution:
    """``compare_artifacts`` diffs ``work_paths`` path by path, so a work
    finding names the span path its counts moved on."""

    def test_perturbed_drift_names_the_guilty_subtree(self, monkeypatch):
        seed, perturbed = _perturbed_seed(monkeypatch)
        _forbid_workload_runs(monkeypatch)
        report = compare_artifacts(seed, perturbed)
        assert not report.ok("work")
        assert [f.render() for f in report.findings if f.kind == "work"] == [
            # the workload's own count: no span carries it, no path
            "[REGRESSION] simulate.count: work-count drift (converged: 1 -> 0)",
            "[REGRESSION] simulate.count: work drift at simulate.run "
            "(interactions: 3200 -> 1600, silent_checks: 9 -> 5)",
        ]

    def test_no_drift_attributes_nothing(self):
        report = compare_artifacts(_artifact(3200, 1), _artifact(3200, 1))
        assert report.findings == []
        assert "no significant changes detected" in report.render()

    def test_unregistered_workload_is_attributed_from_stored_paths(self):
        def ghost(n):
            return _ledger(
                {
                    "ghost": {
                        "work": {},
                        "work_paths": {"root;ghost.span": {"n": n}, "root": {"m": 1}},
                    }
                }
            )

        (finding,) = _work_findings(ghost(1), ghost(2))
        assert finding.where == "ghost"
        assert finding.detail == "work drift at root;ghost.span (n: 1 -> 2)"

    def test_only_the_paths_that_moved_are_named(self):
        def split(inner):
            return _ledger(
                {
                    "wl": {
                        "work": {},
                        "work_paths": {"a;km": {"nodes": 10}, "b;km": {"nodes": inner}},
                    }
                }
            )

        (finding,) = _work_findings(split(5), split(7))
        assert finding.detail == "work drift at b;km (nodes: 5 -> 7)"

    def test_removed_work_key_is_drift(self):
        # A path that vanishes from the ledger entry is drift like any
        # changed count, named by the path that carried it.
        base = _ledger(
            {
                "obs.profile_aggregate": {
                    "work": {"paths": 6},
                    "work_paths": {"ghost": {"counter": 7}},
                }
            }
        )
        new = _ledger({"obs.profile_aggregate": {"work": {"paths": 6}}})
        (finding,) = _work_findings(base, new)
        assert finding.regression
        assert finding.render() == (
            "[REGRESSION] obs.profile_aggregate: "
            "work drift at ghost (counter: 7 -> absent)"
        )


class TestCli:
    def test_record_show_diff_round_trip(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "w") as handle:
            for span in (
                dict(_span("a", 1, None, 5000, {"x": 5}), type="span"),
                dict(_span("b", 2, 1, 1000), type="span"),
            ):
                handle.write(json.dumps(span) + "\n")
        out = str(tmp_path / "p.json")
        assert main(["profile", "record", trace, "--out", out]) == 0
        assert "2 paths" in capsys.readouterr().out
        assert main(["profile", "show", out]) == 0
        assert "a;b" in capsys.readouterr().out
        assert main(["profile", "diff", out, out]) == 0
        assert "no significant differences" in capsys.readouterr().out

    def test_record_workload_and_json_show(self, tmp_path, capsys):
        out = str(tmp_path / "p.json")
        assert main(["profile", "record", "simulate.count", "--out", out]) == 0
        capsys.readouterr()
        assert main(["profile", "show", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == prof.PROFILE_KIND
        # The ledger's traced pass: its work dict and its work paths.
        work, profile = trace_workload(get_workload("simulate.count"))
        assert payload["meta"] == {"workload": "simulate.count", "jobs": 1, "work": work}
        assert payload["paths"]["simulate.run"]["counters"] == (
            profile.work_counts()["simulate.run"]
        )

    def test_diff_exits_nonzero_on_work_drift(self, capsys):
        base = os.path.join(GOLDEN, "profile_base.jsonl")
        regressed = os.path.join(GOLDEN, "profile_regressed.jsonl")
        assert main(["profile", "diff", base, regressed]) == 1
        out = capsys.readouterr().out
        assert "coverability.karp_miller" in out
        assert "FAIL" in out

    def test_show_folded_and_speedscope(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "w") as handle:
            handle.write(json.dumps(dict(_span("a", 1, None, 5000), type="span")) + "\n")
        assert main(["profile", "show", trace, "--folded"]) == 0
        assert capsys.readouterr().out == "a 5000\n"
        assert main(["profile", "show", trace, "--speedscope"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["$schema"].startswith("https://www.speedscope.app")

    def test_record_unknown_workload_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["profile", "record", "no.such.workload",
                  "--out", str(tmp_path / "p.json")])

    def test_record_announces_its_interpretation(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "w") as handle:
            handle.write(json.dumps(dict(_span("a", 1, None, 5000), type="span")) + "\n")
        assert main(["profile", "record", trace, "--out", str(tmp_path / "p.json")]) == 0
        assert "aggregating it as a trace file" in capsys.readouterr().err
        assert main(["profile", "record", "obs.profile_aggregate",
                     "--out", str(tmp_path / "q.json")]) == 0
        assert "recording the registered bench workload" in capsys.readouterr().err

    def test_show_metric_requires_folded(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "w") as handle:
            handle.write(json.dumps(dict(_span("a", 1, None, 5000), type="span")) + "\n")
        with pytest.raises(SystemExit, match="--metric only applies"):
            main(["profile", "show", trace, "--metric", "count"])

    def test_trace_summarize_json(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "w") as handle:
            handle.write(
                json.dumps(dict(_span("a", 1, None, 5000, {"x": 3}), type="span"))
                + "\n"
            )
        assert main(["trace", "summarize", trace, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 1
        assert payload["rows"][0]["name"] == "a"
        assert payload["rows"][0]["counters"] == {"x": 3}

    def test_bench_compare_attribute_end_to_end(self, tmp_path, monkeypatch, capsys):
        """The profile-smoke scenario: a perturbed artifact names its
        path, though no workload can run and the scheduler is restored."""
        seed, perturbed = _perturbed_seed(monkeypatch)
        base_path = str(tmp_path / "base.json")
        new_path = str(tmp_path / "new.json")
        for path, artifact in ((base_path, seed), (new_path, perturbed)):
            with open(path, "w") as handle:
                json.dump(artifact, handle)
        _forbid_workload_runs(monkeypatch)
        assert CountScheduler.run.__qualname__ == "CountScheduler.run"
        code = main(["bench", "compare", base_path, new_path, "--fail-on", "work"])
        assert code == 1
        out = capsys.readouterr().out
        assert "simulate.count: work-count drift (converged: 1 -> 0)" in out
        assert (
            "[REGRESSION] simulate.count: work drift at simulate.run "
            "(interactions: 3200 -> 1600, silent_checks: 9 -> 5)"
        ) in out

    def test_bench_compare_without_drift_prints_no_attribution(self, capsys):
        assert main(["bench", "compare", SEED_BASELINE, SEED_BASELINE]) == 0
        out = capsys.readouterr().out
        assert "work drift" not in out
        assert "no significant changes detected" in out

    def test_bench_compare_attribute_and_jobs_flags_are_gone(self, capsys):
        for flag in (["--attribute"], ["--jobs", "2"], ["--attribution-out", "a.json"]):
            with pytest.raises(SystemExit):
                main(["bench", "compare", SEED_BASELINE, SEED_BASELINE, *flag])
            assert "unrecognized arguments" in capsys.readouterr().err


class TestWorkloadRegistration:
    def test_profile_aggregate_workload_is_deterministic(self):
        from repro.obs.bench import get_workload

        workload = get_workload("obs.profile_aggregate")
        first = workload.run()
        second = workload.run()
        assert first == second
        assert first["spans"] == 640
        assert first["paths"] == 2
        assert first["expansions"] == 1600
