"""E17 — the flight recorder: manifest overhead and crash capture.

The run registry records every long-running CLI invocation.  Its value
is post-mortem (a SIGKILLed week-long search must still leave an
inspectable manifest and stream), so its cost must be front-loaded
and tiny: one manifest write at open, one at finalize, one flushed
line per span or event in the run's one stream, ``trace.jsonl``.
E17 measures and guards both sides:

* **Overhead** — open/finalize cycles per second (the same figure the
  ``runs.manifest_overhead`` ledger workload pins in CI), and the E12
  disabled-path criterion re-asserted *with recording compiled in*:
  a null tracer plus a disabled registry must still cost well under
  5µs per iteration — recording infrastructure must not tax code that
  is not being recorded.
* **Crash capture** — a subprocess running a traced search is killed
  with SIGTERM and with SIGKILL; the registry must report the run as
  ``killed`` either way (immediately for SIGTERM, post-hoc via the
  stale-PID check for SIGKILL) with the already-flushed stream intact.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.obs import runs as runlog

CYCLES = 50


def drive_manifest_cycles(root: str, cycles: int) -> int:
    for index in range(cycles):
        recorder = runlog.RunRecorder.open(
            root,
            command="e17",
            argv=["e17", str(index)],
            seed=index,
            jobs=1,
            install_handlers=False,
        )
        recorder.event("heartbeat:e17", iterations=index)
        recorder.finalize("ok", exit_code=0)
    return len(runlog.list_runs(root))


def test_e17_manifest_cycle_speed(benchmark, tmp_path):
    root = str(tmp_path / "runs")
    recorded = benchmark(drive_manifest_cycles, root, CYCLES)
    assert recorded >= CYCLES


def _spawn_recorded_search(root: str, tmp: str) -> subprocess.Popen:
    """A recorded `repro bb` slow enough to be killed mid-flight."""
    env = dict(os.environ)
    env["REPRO_RUNS_DIR"] = root
    env.pop("REPRO_NO_RUNS", None)
    env["REPRO_NO_CACHE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [env.get("PYTHONPATH"), os.path.join(os.getcwd(), "src")])
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "bb",
            "3",
            "--budget",
            "2000000",
            "--max-input",
            "6",
            "--progress",
            "--progress-interval",
            "0.1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        cwd=tmp,
    )


def _wait_for_running_manifest(root: str, deadline_s: float = 30.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        manifests = runlog.list_runs(root)
        if manifests:
            return manifests[0]
        time.sleep(0.05)
    raise AssertionError("recorded run never appeared")


@pytest.mark.parametrize("signum,expected_signal", [
    (signal.SIGTERM, "SIGTERM"),
    (signal.SIGKILL, "stale-pid"),
])
def test_e17_kill_capture(tmp_path, signum, expected_signal):
    root = str(tmp_path / "runs")
    process = _spawn_recorded_search(root, str(tmp_path))
    try:
        manifest = _wait_for_running_manifest(root)
        # Let the search get far enough to flush at least one heartbeat.
        time.sleep(1.0)
        process.send_signal(signum)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    run_id = manifest["run_id"]
    if signum == signal.SIGTERM:
        final = runlog.load_manifest(root, run_id)
        assert final["status"] == "killed"
    else:
        # SIGKILL: nothing could finalize; the post-mortem check does.
        raw = runlog.load_manifest(root, run_id)
        assert raw["status"] == "running"
        status, stale = runlog.effective_status(raw)
        assert (status, stale) == ("killed", True)
        final = runlog.mark_stale_killed(root, raw)
    assert final["signal"] == expected_signal
    # The partial stream survived the kill: every flushed line is
    # complete JSON (read_stream raises on any other than a cut tail).
    events, _ = runlog.read_stream(root, run_id)
    names = [event.get("name") for event in events]
    assert "run-start" in names


def test_e17_report(tmp_path):
    from repro.fmt import section

    root = str(tmp_path / "runs")
    t0 = time.perf_counter()
    recorded = drive_manifest_cycles(root, CYCLES)
    elapsed = time.perf_counter() - t0
    per_cycle_ms = elapsed / CYCLES * 1e3
    print(section("E17 — flight recorder: manifest overhead"))
    print(
        f"{CYCLES} open/finalize cycles in {elapsed * 1e3:.0f}ms "
        f"({per_cycle_ms:.2f}ms/cycle), {recorded} manifests on disk"
    )
    assert recorded >= CYCLES
    assert per_cycle_ms < 250, "a manifest cycle should cost a few ms, not user-visible time"

    # Disabled-path guard with the registry compiled in but off: the
    # E12 criterion must keep holding for unrecorded code.
    os.environ["REPRO_NO_RUNS"] = "1"
    from repro.obs import get_tracer, progress

    iterations = 200_000
    meter = progress("e17-null")
    t0 = time.perf_counter()
    for _ in range(iterations):
        with get_tracer().span("hot"):
            meter.tick()
    per_iter_ns = (time.perf_counter() - t0) / iterations * 1e9
    print(
        f"null tracer + disabled registry: {per_iter_ns:.0f}ns/iteration "
        f"(runs_root() = {runlog.runs_root()!r})"
    )
    assert runlog.runs_root() is None
    assert per_iter_ns < 5_000

    # The registry's own accounting survives a gc sweep down to zero.
    removed = runlog.gc_runs(root, max_runs=0)
    assert len(removed) == recorded
    assert runlog.list_runs(root) == []
    size = sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(root)
        for name in names
    ) if os.path.isdir(root) else 0
    print(f"gc --max-runs 0: {len(removed)} removed, {size} bytes left")
    assert size == 0

    artifact = {
        "cycles": CYCLES,
        "per_cycle_ms": round(per_cycle_ms, 3),
        "null_path_ns": round(per_iter_ns, 1),
    }
    (tmp_path / "e17.json").write_text(json.dumps(artifact, indent=2))
