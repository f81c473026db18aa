"""Tests for the flight recorder (``repro.obs.runs`` / ``repro runs``).

Covers the manifest lifecycle (open → running → ok/failed/killed),
the run's one stream (spans, heartbeats, worker shards and lifecycle
events in ``trace.jsonl``), crash capture (SIGTERM handler, Ctrl-C to
a ``--jobs`` run's process group, SIGKILL post-mortem via the
stale-PID check), live tailing from a second process, retention GC,
the ``repro runs`` CLI surface (its profile view, its handling of a
corrupt stream and of manifests an older build wrote), the HTML
report, and the fail-fast validation of artifact output paths.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.obs import runs as runlog
from repro.obs.report import render_report_for_run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def runs_dir(tmp_path, monkeypatch):
    """An isolated registry with recording enabled for this test."""
    root = str(tmp_path / "runs")
    monkeypatch.setenv("REPRO_RUNS_DIR", root)
    monkeypatch.delenv("REPRO_NO_RUNS", raising=False)
    yield root
    # A test that opened a recorder without finalizing must not leak the
    # atexit hook or the current-run global into the next test.
    current = runlog.current_run()
    if current is not None:
        current.finalize("ok", exit_code=0)
    runlog.set_current_run(None)


def _open(root, **kwargs):
    kwargs.setdefault("command", "test")
    kwargs.setdefault("argv", ["test"])
    kwargs.setdefault("install_handlers", False)
    return runlog.RunRecorder.open(root, **kwargs)


def _kill(recorder):
    """Leave what a SIGKILL leaves: the stream as flushed, and a manifest
    whose PID cannot be alive (a just-reaped child's)."""
    recorder._handle.close()
    recorder._finalized = True  # nothing in the dead process seals it
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait()
    manifest = runlog.load_manifest(os.path.dirname(recorder.directory), recorder.run_id)
    manifest["pid"] = probe.pid
    runlog._atomic_write_json(
        os.path.join(recorder.directory, runlog.MANIFEST_NAME), manifest
    )
    return manifest


class TestRecorderLifecycle:
    def test_open_writes_running_manifest(self, runs_dir):
        recorder = _open(runs_dir, command="analyze", argv=["analyze", "binary:4"],
                         seed=7, jobs=2)
        manifest = runlog.load_manifest(runs_dir, recorder.run_id)
        assert manifest["kind"] == "repro-run"
        assert manifest["status"] == "running"
        assert manifest["command"] == "analyze"
        assert manifest["argv"] == ["analyze", "binary:4"]
        assert manifest["seed"] == 7
        assert manifest["jobs"] == 2
        assert manifest["pid"] == os.getpid()
        assert manifest["env"]["python"]  # ledger fingerprint reused
        assert manifest["ended_unix"] is None
        recorder.finalize("ok", exit_code=0)

    def test_finalize_seals_and_is_idempotent(self, runs_dir):
        recorder = _open(runs_dir)
        recorder.finalize("ok", exit_code=0)
        recorder.finalize("failed", exit_code=1, error="too late")  # ignored
        manifest = runlog.load_manifest(runs_dir, recorder.run_id)
        assert manifest["status"] == "ok"
        assert manifest["exit_code"] == 0
        assert manifest["error"] is None
        assert manifest["duration_s"] >= 0.0

    def test_finalize_snapshots_metrics_and_cache(self, runs_dir):
        from repro.obs import clear_registry, get_metrics

        clear_registry()
        cache = get_metrics("cache")
        cache.add("hits", 5)  # an earlier run's, in the same process
        cache.add("misses", 2)
        recorder = _open(runs_dir)
        cache.add("hits", 3)
        get_metrics("spans").add("phase.steps", 4)
        recorder.finalize("ok", exit_code=0)
        manifest = runlog.load_manifest(runs_dir, recorder.run_id)
        # The run's own cache counts; its time and span counters are in
        # the stream, not copied into the manifest.
        assert manifest["cache"] == {"hits": 3}
        assert "metrics" not in manifest
        clear_registry()

    def test_a_forked_copy_never_finalizes(self, runs_dir):
        recorder = _open(runs_dir)
        pid = os.fork()
        if pid == 0:  # a pool worker's copy of the recorder, as a signal finds it
            try:
                recorder.finalize("killed", exit_code=130, signal_name="SIGINT")
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        assert runlog.load_manifest(runs_dir, recorder.run_id)["status"] == "running"
        recorder.finalize("ok", exit_code=0)
        events, _ = runlog.read_stream(runs_dir, recorder.run_id)
        assert [event["name"] for event in events] == ["run-start", "run-finish"]
        assert runlog.load_manifest(runs_dir, recorder.run_id)["status"] == "ok"

    def test_atexit_path_marks_failed(self, runs_dir):
        recorder = _open(runs_dir)
        recorder._atexit_finalize()
        manifest = runlog.load_manifest(runs_dir, recorder.run_id)
        assert manifest["status"] == "failed"
        assert "exited before" in manifest["error"]

    def test_events_stream_lifecycle(self, runs_dir):
        recorder = _open(runs_dir)
        recorder.event("heartbeat:test", iterations=10)
        recorder.export_event("heartbeat:loop", 123.0, {"frontier": 5})
        recorder.finalize("ok", exit_code=0)
        events, spans = runlog.read_stream(runs_dir, recorder.run_id)
        names = [event["name"] for event in events]
        assert names == ["run-start", "heartbeat:test", "heartbeat:loop", "run-finish"]
        assert events[2]["ts_us"] == 123.0
        assert events[2]["attrs"]["frontier"] == 5
        assert all(isinstance(event["wall_unix"], float) for event in events)
        assert spans == []
        assert sorted(os.listdir(recorder.directory)) == [
            runlog.MANIFEST_NAME, runlog.TRACE_NAME,
        ]

    def test_spans_share_the_stream_with_events(self, runs_dir):
        from repro.obs import Tracer

        recorder = _open(runs_dir)
        tracer = Tracer([recorder])
        with tracer.span("phase", k=3) as span:
            span.add("steps", 2)
            tracer.event("heartbeat:loop", iterations=1)
        tracer.close()  # the tracer detaching does not end the stream
        recorder.finalize("ok", exit_code=0)
        events, spans = runlog.read_stream(runs_dir, recorder.run_id)
        assert [event["name"] for event in events] == [
            "run-start", "heartbeat:loop", "run-finish",
        ]
        (span,) = spans
        assert (span.name, span.attributes, span.counters) == ("phase", {"k": 3}, {"steps": 2})

    def test_link_artifact_records_absolute_path(self, runs_dir, tmp_path):
        recorder = _open(runs_dir)
        recorder.link_artifact("bench_out", str(tmp_path / "BENCH_x.json"))
        recorder.finalize("ok", exit_code=0)
        manifest = runlog.load_manifest(runs_dir, recorder.run_id)
        assert manifest["artifacts"]["bench_out"].endswith("BENCH_x.json")
        assert os.path.isabs(manifest["artifacts"]["bench_out"])


class TestRegistryReading:
    def test_list_newest_first_and_resolution(self, runs_dir):
        ids = []
        for _ in range(3):
            recorder = _open(runs_dir)
            recorder.finalize("ok", exit_code=0)
            ids.append(recorder.run_id)
            time.sleep(0.01)
        manifests = runlog.list_runs(runs_dir)
        assert [m["run_id"] for m in manifests] == ids[::-1]
        assert runlog.resolve_run_id(runs_dir, "latest") == manifests[0]["run_id"]
        assert runlog.resolve_run_id(runs_dir, ids[0]) == ids[0]

    def test_unique_prefix_and_errors(self, runs_dir):
        recorder = _open(runs_dir)
        recorder.finalize("ok", exit_code=0)
        run_id = recorder.run_id
        assert runlog.resolve_run_id(runs_dir, run_id[:-2]) == run_id
        with pytest.raises(runlog.RunsError):
            runlog.resolve_run_id(runs_dir, "no-such-run")
        with pytest.raises(runlog.RunsError):
            runlog.resolve_run_id(str(runs_dir) + "-empty", "latest")

    def test_list_skips_corrupt_entries(self, runs_dir):
        recorder = _open(runs_dir)
        recorder.finalize("ok", exit_code=0)
        os.makedirs(os.path.join(runs_dir, "debris"))
        with open(os.path.join(runs_dir, "debris", "manifest.json"), "w") as handle:
            handle.write("{ not json")
        manifests = runlog.list_runs(runs_dir)
        assert [m["run_id"] for m in manifests] == [recorder.run_id]

    def test_stale_running_manifest_reports_killed(self, runs_dir):
        recorder = _open(runs_dir)
        manifest = _kill(recorder)
        status, stale = runlog.effective_status(manifest)
        assert (status, stale) == ("killed", True)
        persisted = runlog.mark_stale_killed(runs_dir, manifest)
        assert persisted["status"] == "killed"
        assert persisted["signal"] == "stale-pid"
        reloaded = runlog.load_manifest(runs_dir, recorder.run_id)
        assert reloaded["status"] == "killed"
        events, _ = runlog.read_stream(runs_dir, recorder.run_id)
        assert events[-1]["name"] == "run-killed-detected"

    def test_post_mortem_drops_a_line_the_kill_cut_short(self, runs_dir, capsys):
        recorder = _open(runs_dir)
        recorder.event("heartbeat:x", n=1)
        # Half-written tail line, as a SIGKILL mid-write would leave it.
        with open(os.path.join(recorder.directory, runlog.TRACE_NAME), "a") as handle:
            handle.write('{"type": "span", "name": "cu')
        _kill(recorder)
        assert main(["runs", "show", "latest"]) == 0
        assert "status: killed" in capsys.readouterr().out
        with open(os.path.join(recorder.directory, runlog.TRACE_NAME)) as handle:
            lines = handle.read().splitlines()
        # Every line is JSON again: the cut line went, the verdict landed.
        names = [json.loads(line).get("name") for line in lines]
        assert names[1:] == ["run-start", "heartbeat:x", "run-killed-detected"]

    def test_live_running_manifest_stays_running(self, runs_dir):
        recorder = _open(runs_dir)
        manifest = runlog.load_manifest(runs_dir, recorder.run_id)
        status, stale = runlog.effective_status(manifest)
        assert (status, stale) == ("running", False)
        recorder.finalize("ok", exit_code=0)

    def test_newer_schema_manifest_raises_and_list_skips(self, runs_dir, capsys):
        recorder = _open(runs_dir)
        recorder.finalize("ok", exit_code=0)
        newer = _open(runs_dir)
        newer.finalize("ok", exit_code=0)
        manifest = runlog.load_manifest(runs_dir, newer.run_id)
        manifest["schema"] = runlog.MANIFEST_SCHEMA + 1
        runlog._atomic_write_json(
            os.path.join(newer.directory, runlog.MANIFEST_NAME), manifest
        )
        with pytest.raises(runlog.RunsSchemaError, match="newer"):
            runlog.load_manifest(runs_dir, newer.run_id)
        # The listing degrades to a warning instead of dying on the
        # one futuristic entry; older runs still list fine.
        manifests = runlog.list_runs(runs_dir)
        assert [m["run_id"] for m in manifests] == [recorder.run_id]
        assert "skipping run" in capsys.readouterr().err

    def test_list_cli_dashes_without_histograms(self, runs_dir, capsys):
        recorder = _open(runs_dir)
        recorder.finalize("ok", exit_code=0)
        assert main(["runs", "list"]) == 0
        row = [
            line
            for line in capsys.readouterr().out.splitlines()
            if recorder.run_id in line
        ][0]
        assert "| -" in row


class TestParentManifests:
    """A manifest from before the registry kept counters only carries a
    ``metrics`` snapshot (counters, timers, latency histograms) under the
    same schema 2; the readers still read it and pass it over."""

    PARENT_METRICS = {
        "cache": {"counters": {"hits": 16, "misses": 2}, "timers": {}},
        "spans": {
            "counters": {"coverability.karp_miller.nodes": 7},
            "timers": {"analyze": 0.118},
            "histograms": {
                "analyze": {
                    "buckets": {"17": 1}, "count": 1, "max": 118496.4, "min": 118496.4,
                    "p50": 131072.0, "p90": 131072.0, "p99": 131072.0, "total": 118496.4,
                },
            },
        },
    }

    @pytest.fixture
    def parent_run(self, runs_dir):
        from repro.obs import Tracer

        recorder = _open(runs_dir, command="analyze", argv=["analyze", "binary:3"])
        tracer = Tracer([recorder])
        with tracer.span("analyze"):
            pass
        tracer.close()
        recorder.finalize("ok", exit_code=0)
        manifest = runlog.load_manifest(runs_dir, recorder.run_id)
        assert manifest["schema"] == 2
        manifest["metrics"] = self.PARENT_METRICS
        manifest["cache"] = {"hits": 16, "misses": 2}
        runlog._atomic_write_json(
            os.path.join(recorder.directory, runlog.MANIFEST_NAME), manifest
        )
        return manifest

    def test_list_and_show_read_it(self, parent_run, capsys):
        assert main(["runs", "list"]) == 0
        assert parent_run["run_id"] in capsys.readouterr().out
        assert main(["runs", "list", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["metrics"] == self.PARENT_METRICS
        assert main(["runs", "show", "latest"]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out and "cache: hits=16, misses=2" in out
        assert "p50" not in out  # the stored histograms are passed over
        assert main(["runs", "show", "latest", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == parent_run

    def test_report_renders_without_a_metrics_section(self, parent_run, runs_dir):
        document = render_report_for_run(runs_dir, parent_run["run_id"])
        assert "<h2>Work profile</h2>" in document
        assert "Metrics" not in document and "histogram" not in document


class TestGc:
    def _finished_run(self, root, started=None):
        recorder = _open(root)
        recorder.finalize("ok", exit_code=0)
        if started is not None:
            manifest = runlog.load_manifest(root, recorder.run_id)
            manifest["started_unix"] = started
            runlog._atomic_write_json(
                os.path.join(recorder.directory, runlog.MANIFEST_NAME), manifest
            )
        return recorder.run_id

    def test_max_runs_keeps_newest(self, runs_dir):
        ids = [self._finished_run(runs_dir) for _ in range(4)]
        removed = runlog.gc_runs(runs_dir, max_runs=2)
        assert len(removed) == 2
        survivors = {m["run_id"] for m in runlog.list_runs(runs_dir)}
        # list_runs is newest-first; with near-identical timestamps the
        # run-id suffix breaks ties, so just assert count + disjointness.
        assert len(survivors) == 2
        assert survivors.isdisjoint({m["run_id"] for m in removed})
        assert set(ids) == survivors | {m["run_id"] for m in removed}

    def test_max_runs_zero_empties_registry(self, runs_dir):
        for _ in range(3):
            self._finished_run(runs_dir)
        removed = runlog.gc_runs(runs_dir, max_runs=0)
        assert len(removed) == 3
        assert runlog.list_runs(runs_dir) == []
        assert os.listdir(runs_dir) == []

    def test_max_age_days(self, runs_dir):
        old = self._finished_run(runs_dir, started=time.time() - 10 * 86400)
        new = self._finished_run(runs_dir)
        removed = runlog.gc_runs(runs_dir, max_age_days=7)
        assert [m["run_id"] for m in removed] == [old]
        assert [m["run_id"] for m in runlog.list_runs(runs_dir)] == [new]

    def test_max_bytes_drops_oldest_first(self, runs_dir):
        first = self._finished_run(runs_dir, started=time.time() - 200)
        second = self._finished_run(runs_dir, started=time.time() - 100)
        third = self._finished_run(runs_dir)
        total = sum(
            runlog.run_size_bytes(runs_dir, run_id)
            for run_id in (first, second, third)
        )
        removed = runlog.gc_runs(runs_dir, max_bytes=total - 1)
        assert removed and removed[0]["run_id"] == first
        assert third in {m["run_id"] for m in runlog.list_runs(runs_dir)}

    def test_dry_run_removes_nothing(self, runs_dir):
        self._finished_run(runs_dir)
        removed = runlog.gc_runs(runs_dir, max_runs=0, dry_run=True)
        assert len(removed) == 1
        assert len(runlog.list_runs(runs_dir)) == 1

    def test_live_run_is_never_collected(self, runs_dir):
        recorder = _open(runs_dir)  # this process is alive: genuinely live
        self._finished_run(runs_dir)
        removed = runlog.gc_runs(runs_dir, max_runs=0)
        assert recorder.run_id not in {m["run_id"] for m in removed}
        assert len(removed) == 1
        recorder.finalize("ok", exit_code=0)


class TestTailing:
    def test_no_follow_returns_recorded_events(self, runs_dir):
        recorder = _open(runs_dir)
        recorder.event("heartbeat:x", n=1)
        recorder.finalize("ok", exit_code=0)
        events = list(runlog.follow_events(runs_dir, recorder.run_id, follow=False))
        assert [e["name"] for e in events] == [
            "run-start", "heartbeat:x", "run-finish",
        ]

    def test_follow_sees_events_appended_while_live(self, runs_dir):
        recorder = _open(runs_dir)

        def producer():
            for index in range(3):
                time.sleep(0.05)
                recorder.event("heartbeat:live", n=index)
            recorder.finalize("ok", exit_code=0)

        thread = threading.Thread(target=producer)
        thread.start()
        try:
            events = list(
                runlog.follow_events(
                    runs_dir, recorder.run_id, interval=0.02, timeout=10.0
                )
            )
        finally:
            thread.join()
        names = [e["name"] for e in events]
        assert names[0] == "run-start"
        assert names.count("heartbeat:live") == 3
        assert names[-1] == "run-finish"  # stopped because the run ended

    def test_follow_marks_stale_run_killed(self, runs_dir):
        recorder = _open(runs_dir)
        _kill(recorder)
        events = list(
            runlog.follow_events(runs_dir, recorder.run_id, interval=0.01, timeout=5.0)
        )
        assert events[-1]["name"] == "run-killed-detected"
        assert runlog.load_manifest(runs_dir, recorder.run_id)["status"] == "killed"


class TestCliRecording:
    def test_runs_diff_compares_two_recorded_runs(self, runs_dir, capsys):
        assert main(["analyze", "binary:3", "--max-input", "4"]) == 0
        assert main(["simulate", "binary:4", "--input", "20", "--seed", "1"]) == 0
        manifests = runlog.list_runs(runs_dir)
        assert len(manifests) == 2
        base_id, new_id = manifests[1]["run_id"], manifests[0]["run_id"]
        capsys.readouterr()
        # analyze's span forest vs simulate's: work-carrying paths
        # appear/disappear, so the diff gates (exit 1) and names them.
        assert main(["runs", "diff", base_id, new_id]) == 1
        out = capsys.readouterr().out
        assert f"run {base_id}" in out
        assert "simulate.run" in out

    def test_runs_diff_same_run_is_clean(self, runs_dir, capsys):
        assert main(["analyze", "binary:3", "--max-input", "4"]) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "latest", "latest"]) == 0
        assert "no significant differences" in capsys.readouterr().out

    def test_analyze_records_ok_run_with_trace_and_metrics(self, runs_dir, capsys):
        code = main(["analyze", "binary:3", "--max-input", "4"])
        assert code == 0
        assert "run recorded:" in capsys.readouterr().err
        (manifest,) = runlog.list_runs(runs_dir)
        assert manifest["status"] == "ok"
        assert manifest["command"] == "analyze"
        assert manifest["exit_code"] == 0
        directory = runlog.run_directory(runs_dir, manifest["run_id"])
        assert os.path.exists(os.path.join(directory, runlog.TRACE_NAME))
        from repro.obs import load_trace

        spans = load_trace(os.path.join(directory, runlog.TRACE_NAME))
        assert any(span.name == "analyze" for span in spans)
        assert "metrics" not in manifest

    def test_manifest_cache_counts_are_the_runs_own(self, runs_dir, tmp_path, capsys):
        import re

        cache_dir = str(tmp_path / "cache")
        for _ in range(2):
            assert main(["--cache-dir", cache_dir, "analyze", "binary:3", "--max-input", "4"]) == 0
            line = re.search(r"^cache: (\d+) hits, (\d+) misses", capsys.readouterr().err, re.M)
            assert line is not None
            cache = runlog.list_runs(runs_dir)[0]["cache"]
            assert (cache.get("hits", 0), cache.get("misses", 0)) == tuple(map(int, line.groups()))

    def test_inspection_commands_are_not_recorded(self, runs_dir, capsys):
        assert main(["describe", "binary:3"]) == 0
        assert main(["runs", "list"]) == 0
        assert runlog.list_runs(runs_dir) == []

    def test_recording_disabled_by_env(self, runs_dir, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NO_RUNS", "1")
        assert main(["analyze", "binary:3", "--max-input", "4"]) == 0
        assert runlog.list_runs(runs_dir) == []
        # ... but inspection still reads the (empty) registry.
        assert main(["runs", "list"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_handler_abort_finalizes_failed(self, runs_dir):
        with pytest.raises(SystemExit):
            main(["analyze", "no-such-protocol-anywhere"])
        (manifest,) = runlog.list_runs(runs_dir)
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == 1

    def test_escaped_repro_error_finalizes_failed(self, runs_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", "majority"])
        assert excinfo.value.code.startswith("error: ")
        (manifest,) = runlog.list_runs(runs_dir)
        assert manifest["status"] == "failed"
        assert manifest["exit_code"] == 1
        assert "expected a single input variable" in manifest["error"]

    def test_cli_list_show_and_json(self, runs_dir, capsys):
        assert main(["analyze", "binary:3", "--max-input", "4"]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1 and payload[0]["status"] == "ok"
        assert main(["runs", "show", "latest"]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out
        assert "p50=" not in out
        assert main(["runs", "show", "latest", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["kind"] == "repro-run"

    def test_show_prints_the_runs_own_profile(self, runs_dir, capsys):
        assert main(["analyze", "binary:3", "--max-input", "4"]) == 0
        assert main(["analyze", "binary:3", "--max-input", "4"]) == 0
        capsys.readouterr()
        assert main(["runs", "show", "latest"]) == 0
        out = capsys.readouterr().out
        # One row per path, sorted by total: the root span leads, and the
        # earlier run's `analyze` span is not counted into this one.
        rows = [line for line in out.splitlines() if line.startswith("analyze ")]
        assert len(rows) == 1, out
        cells = [cell.strip() for cell in rows[0].split("|")]
        assert cells[1] == "1"  # calls
        total = cells[2]
        scale = next(s for unit, s in (("ms", 1e-3), ("µs", 1e-6), ("s", 1.0)) if total.endswith(unit))
        total_s = float(total.rstrip("mµs")) * scale
        # duration_s is rounded to the millisecond.
        assert 0 < total_s <= runlog.list_runs(runs_dir)[0]["duration_s"] + 1e-3

    def test_cli_tail_no_follow(self, runs_dir, capsys):
        assert main(["analyze", "binary:3", "--max-input", "4"]) == 0
        capsys.readouterr()
        assert main(["runs", "tail", "latest", "--no-follow"]) == 0
        captured = capsys.readouterr()
        assert "run-start" in captured.out
        assert "run-finish" in captured.out

    def test_cli_gc_requires_policy_and_empties(self, runs_dir, capsys):
        assert main(["analyze", "binary:3", "--max-input", "4"]) == 0
        with pytest.raises(SystemExit):
            main(["runs", "gc"])
        assert main(["runs", "gc", "--max-runs", "0"]) == 0
        assert runlog.list_runs(runs_dir) == []
        assert os.listdir(runs_dir) == []

    def test_cli_report_writes_self_contained_html(self, runs_dir, tmp_path, capsys):
        assert main(["analyze", "binary:3", "--max-input", "4"]) == 0
        out = str(tmp_path / "report.html")
        assert main(["runs", "report", "latest", "-o", out]) == 0
        document = open(out).read()
        assert document.startswith("<!DOCTYPE html>")
        assert "<script" not in document  # self-contained, no JS
        assert "http://" not in document and "https://" not in document
        assert "Span tree" in document and "analyze" in document
        headings = [part.split("</h2>")[0] for part in document.split("<h2>")[1:]]
        assert headings == [
            "Span tree", "Worker timelines", "Work profile", "Cache", "Events", "Environment",
        ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_each_heartbeat_lands_once_in_the_one_stream(self, runs_dir, tmp_path, jobs, capsys):
        user = str(tmp_path / "u.jsonl")
        assert main(["bb", "3", "--budget", "40000", "--progress-interval", "0.001",
                     "--jobs", jobs, "--trace", user]) == 0
        (manifest,) = runlog.list_runs(runs_dir)
        directory = runlog.run_directory(runs_dir, manifest["run_id"])
        assert sorted(os.listdir(directory)) == [runlog.MANIFEST_NAME, runlog.TRACE_NAME]
        assert sorted(manifest["artifacts"]) == ["trace", "user_trace"]

        def heartbeats(path):
            with open(path) as handle:
                records = [json.loads(line) for line in handle]
            return [
                (record["ts_us"], record["attrs"].get("task"), record["attrs"].get("worker_pid"))
                for record in records
                if record.get("name", "").startswith("heartbeat:")
            ]

        stream = heartbeats(os.path.join(directory, runlog.TRACE_NAME))
        assert stream and len(set(stream)) == len(stream)
        assert stream == heartbeats(user)
        workers = [pid for _, _, pid in stream if pid is not None]
        # Worker shards reach every sink; a serial run has none.
        assert bool(workers) == (jobs == "2")

    def test_runs_dir_flag_overrides_env(self, runs_dir, tmp_path, capsys):
        other = str(tmp_path / "other-registry")
        recorder = _open(other)
        recorder.finalize("ok", exit_code=0)
        assert main(["runs", "list", "--runs-dir", other]) == 0
        assert recorder.run_id in capsys.readouterr().out

    def test_unwritable_trace_path_fails_fast(self, runs_dir, tmp_path):
        missing = str(tmp_path / "no-such-dir" / "trace.jsonl")
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "binary:3", "--trace", missing])
        assert "--trace" in str(excinfo.value)
        # Fail-fast means before any work: no run manifest either.
        assert runlog.list_runs(runs_dir) == []

    def test_unwritable_output_leaves_no_debris(self, runs_dir, tmp_path):
        target = str(tmp_path / "out.json")
        with pytest.raises(SystemExit, match="error: predicate 'x >>> nonsense'"):
            # Valid path probe, then the handler aborts on a bad
            # predicate: the probe must not have left an empty file.
            main(["compile", "x >>> nonsense", "-o", target])
        assert not os.path.exists(target)

    def test_bench_out_validated_fast(self, tmp_path):
        missing = str(tmp_path / "gone" / "BENCH.json")
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "run", "--suite", "micro", "--out", missing])
        assert "--out" in str(excinfo.value)


def _spawn_cli(args, env_extra, cwd, **popen):
    env = dict(os.environ)
    env.pop("REPRO_NO_RUNS", None)
    env["REPRO_NO_CACHE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_extra)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        cwd=cwd,
        text=True,
        **popen,
    )


def _wait_for_manifest(root, deadline_s=30.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        manifests = runlog.list_runs(root)
        if manifests:
            return manifests[0]
        time.sleep(0.05)
    raise AssertionError("recorded run never appeared")


class TestKillCapture:
    """The acceptance scenario: killed runs stay inspectable."""

    _SEARCH = [
        "bb", "3", "--budget", "5000000", "--max-input", "6",
        "--progress", "--progress-interval", "0.1",
    ]

    def test_sigterm_finalizes_killed_and_second_process_tails(self, tmp_path):
        root = str(tmp_path / "runs")
        process = _spawn_cli(self._SEARCH, {"REPRO_RUNS_DIR": root}, str(tmp_path))
        try:
            manifest = _wait_for_manifest(root)
            # A genuinely separate process follows the live run.
            tail = _spawn_cli(
                ["runs", "tail", "latest", "--runs-dir", root,
                 "--interval", "0.1", "--timeout", "1.5"],
                {"REPRO_NO_RUNS": "1"},
                str(tmp_path),
            )
            tail_out, _ = tail.communicate(timeout=30)
            assert "run-start" in tail_out
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        final = runlog.load_manifest(root, manifest["run_id"])
        assert final["status"] == "killed"
        assert final["signal"] == "SIGTERM"
        assert final["exit_code"] == 128 + signal.SIGTERM
        events, spans = runlog.read_stream(root, manifest["run_id"])
        names = [event["name"] for event in events]
        assert "run-start" in names and "run-finish" in names
        # The spans the tracer closed on the way out still landed.
        assert "bounds.busy_beaver" in {span.name for span in spans}

    def test_sigkill_detected_post_mortem(self, tmp_path, capsys, monkeypatch):
        root = str(tmp_path / "runs")
        process = _spawn_cli(self._SEARCH, {"REPRO_RUNS_DIR": root}, str(tmp_path))
        try:
            manifest = _wait_for_manifest(root)
            time.sleep(0.8)  # let at least one heartbeat flush
            process.kill()  # SIGKILL: nothing in-process can react
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        raw = runlog.load_manifest(root, manifest["run_id"])
        assert raw["status"] == "running"  # never finalized
        # `repro runs show` applies and persists the post-mortem verdict.
        monkeypatch.setenv("REPRO_RUNS_DIR", root)
        monkeypatch.delenv("REPRO_NO_RUNS", raising=False)
        assert main(["runs", "show", "latest"]) == 0
        out = capsys.readouterr().out
        assert "status: killed" in out
        persisted = runlog.load_manifest(root, manifest["run_id"])
        assert persisted["status"] == "killed"
        assert persisted["signal"] == "stale-pid"
        # The partial stream survived the kill.
        events, _ = runlog.read_stream(root, manifest["run_id"])
        assert events and events[0]["name"] == "run-start"
        assert events[-1]["name"] == "run-killed-detected"


class TestCtrlCOnParallelRun:
    """Ctrl-C reaches the whole process group, forked workers included."""

    def test_sigint_to_the_group_finalizes_once_and_exits(self, tmp_path):
        root = str(tmp_path / "runs")
        process = _spawn_cli(
            ["bb", "3", "--budget", "5000000", "--jobs", "2", "--progress-interval", "0.1"],
            {"REPRO_RUNS_DIR": root},
            str(tmp_path),
            start_new_session=True,
        )
        children = f"/proc/{process.pid}/task/{process.pid}/children"
        try:
            manifest = _wait_for_manifest(root)
            # The run's stream gets no heartbeat before a task ends (about
            # 20 s a chunk here), so wait for the pool's two workers.
            deadline = time.monotonic() + 30.0
            while len(open(children).read().split()) < 2:
                assert time.monotonic() < deadline, "the worker pool never started"
                time.sleep(0.05)
            time.sleep(0.5)
            os.killpg(process.pid, signal.SIGINT)
            assert process.wait(timeout=10) == 130
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        final = runlog.load_manifest(root, manifest["run_id"])
        assert (final["status"], final["signal"]) == ("killed", "SIGINT")
        assert final["exit_code"] == 130
        events, _ = runlog.read_stream(root, manifest["run_id"])
        assert [event["name"] for event in events].count("run-finish") == 1


class TestCorruptStream:
    """A complete line that is not JSON ends in one ``error:`` line."""

    @pytest.fixture
    def corrupt_run(self, runs_dir, capsys):
        assert main(["bb", "2", "--max-input", "6"]) == 0
        (manifest,) = runlog.list_runs(runs_dir)
        path = os.path.join(runlog.run_directory(runs_dir, manifest["run_id"]), runlog.TRACE_NAME)
        with open(path) as handle:
            lines = handle.readlines()
        lines.insert(1, '{"type": "span", "name": "cut\n')
        with open(path, "w") as handle:
            handle.writelines(lines)
        capsys.readouterr()
        return manifest["run_id"]

    @pytest.mark.parametrize("argv", [
        ["runs", "show", "latest"],
        ["runs", "report", "latest"],
        ["runs", "diff", "latest", "latest"],
        ["runs", "tail", "latest", "--no-follow"],
    ])
    def test_runs_command_fails_cleanly(self, corrupt_run, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert message.startswith("error: ")
        assert corrupt_run in message and "line 2 column" in message

    def test_manifest_json_still_reads(self, corrupt_run, capsys):
        assert main(["runs", "show", "latest", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == corrupt_run


class TestReportRendering:
    def test_report_for_killed_run_shows_partial_stream(self, runs_dir):
        recorder = _open(runs_dir)
        recorder.event("heartbeat:x", n=1)
        # Half-written tail line, as a kill would leave it.
        with open(os.path.join(recorder.directory, runlog.TRACE_NAME), "a") as handle:
            handle.write('{"type": "event", "name": "trun')
        _kill(recorder)
        document = render_report_for_run(runs_dir, recorder.run_id)
        assert "killed" in document
        assert "heartbeat:x" in document
        assert "post mortem" in document

    def test_report_escapes_attributes(self, runs_dir):
        recorder = _open(runs_dir, argv=["analyze", "<script>alert(1)</script>"])
        recorder.finalize("ok", exit_code=0)
        document = render_report_for_run(runs_dir, recorder.run_id)
        assert "<script>" not in document
        assert "&lt;script&gt;" in document
