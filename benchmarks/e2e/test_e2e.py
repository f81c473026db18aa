"""Self-tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``.

The smoke tests run every workload for one pass, untraced and traced,
so this module takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import compare
import run
from traced_child import LayerTimer

RUN_PY = str(run.HERE / "run.py")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    timer = LayerTimer(clock)

    def inner():
        clock.now += 2.0

    def outer(depth):
        clock.now += 1.0
        wrapped_inner()
        if depth:
            wrapped_outer(depth - 1)
        clock.now += 0.5

    wrapped_inner = timer.wrap("inner", inner)
    wrapped_outer = timer.wrap("outer", outer)
    wrapped_outer(1)
    assert timer.stats["inner"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    # Two outer calls of 1.5 s own time each; only the outermost counts
    # towards the total, which spans the recursion.
    assert timer.stats["outer"] == {"calls": 2, "self_s": 3.0, "total_s": 7.0}


def test_counter_growth_is_attributed_to_the_wrapped_call():
    registry = {"interactions": 10}

    def simulate():
        registry["interactions"] += 5

    timer = LayerTimer()
    wrapped = timer.wrap("sim", simulate, counter=lambda: registry["interactions"])
    wrapped()
    wrapped()
    registry["interactions"] += 100  # outside the calls: not attributed
    assert timer.stats["sim"]["calls"] == 2
    assert timer.stats["sim"]["counter"] == 10


def test_each_op_is_rescaled_by_the_calibrations_around_it(monkeypatch, tmp_path):
    walls = iter([0.18, 2.0, 0.36, 1.0, 0.18])  # calibration, op, calibration, op, ...

    def spawn(box, argv):
        return 0, next(walls), 40.0, "usage: repro", ""

    class Box:
        def path(self, name):
            return tmp_path

    monkeypatch.setattr(run, "_spawn", spawn)
    log = run.RunLog()
    help_op = run.Op(run.HELP, run._starts_with("usage: repro"))
    assert run.calibrate(Box(), log) == 1.0
    first = run.run_calibrated(Box(), help_op, log)
    second = run.run_calibrated(Box(), help_op, log)
    assert first.time_s == pytest.approx(2.0 * 0.18 / 0.27)
    assert second.time_s == pytest.approx(1.0 * 0.18 / 0.27)
    assert not log.errors


def test_median_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert run.median(values) == 3.5
    assert run.quartiles(values) == (1.75, 3.5, 6.0)
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(base, [x * 1.05 for x in base], "lower", 0.10) == "within"
    assert compare.verdict(base, [x * 1.20 for x in base], "lower", 0.10) == "worse"
    assert compare.verdict(base, [x * 0.80 for x in base], "lower", 0.10) == "better"
    assert compare.verdict(base, [x * 0.80 for x in base], "higher", 0.10) == "worse"
    noisy = [0.6, 1.0, 1.4, 0.8, 1.2]
    assert compare.verdict(base, noisy, "lower", 0.10) == "unresolved"
    assert compare.verdict(base, [x * 0.5 for x in noisy], "lower", 0.10) == "better"
    assert compare.verdict(base, base, "lower", None) == "-"


def test_benchmark_json_lists_the_metrics_run_py_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _ in run.LAYER_METRICS
    ]


def test_without_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cli-warm", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Both smoke runs with HOME pointed at an empty directory."""
    home = tmp_path_factory.mktemp("home")
    results = {}
    for trace in (0, 1):
        out = tmp_path_factory.mktemp("out") / "runs.jsonl"
        proc = subprocess.run(
            [sys.executable, RUN_PY, "--smoke", "--trace", str(trace), "--out", str(out)],
            env=dict(os.environ, HOME=str(home)), capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        results[trace] = {
            r["workload"]: r for r in map(json.loads, out.read_text().splitlines())
        }
    return home, results


def test_smoke_emits_every_benchmark_metric(smoke):
    _, results = smoke
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert set(results[trace]) == set(run.WORKLOADS)
        for result in results[trace].values():
            assert result["correct"] and result["failed"] == 0, result["errors"]
            assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_layer_metrics_are_live_where_mapped(smoke):
    traced = smoke[1][1]
    dead = [
        (name, workload)
        for name, _, workloads in run.LAYER_METRICS
        for workload in workloads
        if not traced[workload]["metrics"][name]["value"] > 0
    ]
    assert not dead
    value = {w: {k: m["value"] for k, m in r["metrics"].items()} for w, r in traced.items()}
    assert value["cli-warm"]["cache.hit_ratio"] == 1.0
    assert value["analyze-cold"]["cache.hit_ratio"] < 1
    assert value["simulate-ensemble"]["reachability.km_expansions"] == 0


def test_runs_leave_home_and_checkout_clean(smoke):
    home, _ = smoke
    assert not any(home.iterdir())
    assert not run.WORK_ROOT.exists()


def test_parent_process_never_imports_repro():
    result = run.run_workload(run.WORKLOADS["bb-search"], seed=0, seconds=0, trace=False,
                              smoke=True)
    assert result["correct"], result["errors"]
    assert not [name for name in sys.modules if name.split(".")[0] == "repro"]


def test_ctrl_c_kills_the_child_and_removes_the_sandbox(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, RUN_PY, "--workload", "analyze-cold", "--smoke"],
        env=dict(os.environ, HOME=str(tmp_path)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        # A recorded run directory means an `analyze` child is running.
        while not list(run.WORK_ROOT.glob("run-*/state/runs/*")):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.05)
        sandboxes = list(run.WORK_ROOT.glob("run-*"))
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) != 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    time.sleep(0.5)
    assert sandboxes and not any(path.exists() for path in sandboxes)
