#!/usr/bin/env python3
"""End-to-end benchmark: what a user of the ``repro`` CLI waits for.

Every operation is a real ``python -m repro ...`` subprocess, started from
the checkout's ``src/`` tree.  Load model: a closed loop with one client.
This parent process runs one child at a time, never imports ``repro`` and
gives each child single-threaded BLAS (``*_NUM_THREADS=1``).

One run of a workload is: set-up, repeated ``SETUP_REPEATS`` times, then
passes over the workload's operations in an order shuffled by ``--seed``.
A run lasts about ``--seconds``, set-up included: it stops before a pass
that would not end in time, after at least one pass.  Every output is
checked (exit code, parseable ``--json``, the known verdict, the same
stdout in every pass).

    python benchmarks/e2e/run.py --workload cli-warm --seed 0     # one run
    python benchmarks/e2e/run.py --seed 0 --out A.jsonl           # each workload
    python benchmarks/e2e/run.py --workload bb-search --trace 1    # per layer
    python benchmarks/e2e/run.py --smoke --trace 1                 # one pass each

With ``--trace 0`` a run reports the end-to-end metrics, timed with
tracing off.  With ``--trace 1`` each pass runs once untraced and once
through ``traced_child.py``, and the run reports the per-layer metrics.
The last line of stdout is the run's result as one JSON object.  See
README.md for the metrics, their bounds and why each workload is here.

Times are rescaled to a reference host speed.  The speed of a shared
host changes by 10-25% within seconds and between minutes, which no
repetition inside one run can average out.  So the parent times a
calibration child, fixed Python and numpy loops that import nothing from
the checkout, before the first set-up and after every child, and
multiplies each child's wall time by ``REFERENCE_CALIBRATION_S`` over
the mean of the two calibration times around it.  A change to ``repro``
cannot move the calibration, so it moves the rescaled times exactly as it
moves wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
TRACED_CHILD = HERE / "traced_child.py"
WORK_ROOT = ROOT / ".bench_e2e"

SETUP_REPEATS = 3
HELP_PROBES = 2  # `--help` runs after each untraced pass: cold_start_s samples
HELP = ("--help",)

# Interpreter work and small-array numpy work, the two kinds the ops do;
# either alone tracks only the ops of its own kind.
CALIBRATION = """\
import numpy
counts = {}
for i in range(100000):
    key = i % 5003
    counts[key] = counts.get(key, 0) + i * i % 7
rng = numpy.random.default_rng(0)
matrix = numpy.full((2048, 8), 1000, dtype=numpy.int64)
for _ in range(150):
    draws = rng.binomial(100, 0.5, size=2048)
    matrix += draws[:, None] % 3 - 1
    (matrix < 0).any(axis=1)
"""
# Median wall time of the calibration child, process start included, on
# the machine the bounds were set on (2-vCPU Linux VM, Python 3.11).
REFERENCE_CALIBRATION_S = 0.18

# ----------------------------------------------------------------------
# Output checks: each returns None when the stdout is right, else why not.
# ----------------------------------------------------------------------

Check = Callable[[str], Optional[str]]


def _contains(text: str) -> Check:
    return lambda out: None if text in out else f"stdout lacks {text!r}"


def _starts_with(text: str) -> Check:
    return lambda out: None if out.startswith(text) else f"stdout does not start with {text!r}"


def _bb(eta: int, enumerated: int) -> Check:
    def check(out: str) -> Optional[str]:
        result = json.loads(out)
        if (result["eta"], result["protocols_enumerated"]) != (eta, enumerated):
            return (
                f"eta {result['eta']} with {result['protocols_enumerated']} protocols, "
                f"expected eta {eta} with {enumerated}"
            )
        return None

    return check


def _simulated(trials: int, verdict: str) -> Check:
    def check(out: str) -> Optional[str]:
        result = json.loads(out)
        if result["convergence_rate"] != 1 or result["verdicts"] != {verdict: trials}:
            return (
                f"convergence_rate {result['convergence_rate']}, verdicts "
                f"{result['verdicts']}, expected all {trials} trials at {verdict}"
            )
        return None

    return check


def _scenarios_ok(out: str) -> Optional[str]:
    records = json.loads(out)
    failed = [f"{r['scenario']}[{r['instance']}]" for r in records if not r["ok"]]
    if not records or failed:
        return f"scenario checks failed: {failed or 'no records'}"
    return None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    argv: Tuple[str, ...]
    check: Check

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[random.Random], Tuple[Op, ...]]  # simulate seeds come from the rng
    cold_cache: bool = False  # the cache directory is emptied before every op
    prefill: bool = False  # set-up runs one pass to fill the cache


def _analyze_cold(rng: random.Random) -> Tuple[Op, ...]:
    structure = _contains("Structure")
    return (
        Op(("analyze", "flat:6", "--quotient"), structure),
        Op(("analyze", "binary:24"), structure),
        Op(("analyze", "leroux-leader:2"), structure),
        Op(("certify", "flat:6", "--section", "4"), _starts_with("eta <= 6 ")),
    )


def _cli_warm(rng: random.Random) -> Tuple[Op, ...]:
    structure = _contains("Structure")
    return (
        Op(HELP, _starts_with("usage: repro")),
        Op(("describe", "binary:10"), _starts_with("protocol binary_threshold(eta=10)")),
        Op(("verify", "binary:10", "x >= 10", "--max-input", "14"), _starts_with("OK:")),
        Op(("certify", "binary:6", "--section", "4"), _starts_with("eta <= 6 ")),
        Op(("scenarios", "check", "--smallest", "--json"), _scenarios_ok),
        Op(("analyze", "flat:6"), structure),
        Op(("analyze", "binary:16"), structure),
        Op(
            ("simulate", "binary:4", "--input", "6", "--trials", "32", "--engine", "vector",
             "--json", "--seed", str(rng.randrange(2**31))),
            _simulated(32, "1"),
        ),
    )


def _bb_search(rng: random.Random) -> Tuple[Op, ...]:
    return (
        Op(("bb", "3", "--budget", "8000", "--json"), _bb(eta=0, enumerated=8001)),
        Op(("bb", "2", "--json"), _bb(eta=2, enumerated=216)),
    )


def _simulate_ensemble(rng: random.Random) -> Tuple[Op, ...]:
    def simulate(spec: str, inputs: str, trials: int, engine: str) -> Op:
        argv = ("simulate", spec, "--input", inputs, "--trials", str(trials),
                "--engine", engine, "--json", "--max-steps", str(10**15),
                "--seed", str(rng.randrange(2**31)))
        return Op(argv, _simulated(trials, "1"))

    return (
        simulate("binary:8", "1000", 16, "count"),
        simulate("binary:8", "1000000000", 2048, "vector"),
        simulate("approx-majority", "x=600000000,y=400000000", 1024, "vector"),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Exact analysis from an empty cache: Pottier and Karp-Miller
        # dominate, and the cache is only written.
        Workload("analyze-cold", _analyze_cold, cold_cache=True),
        # Short interactive commands on a filled cache: import and CLI
        # overhead dominate, and the same cache layer is only read.
        Workload("cli-warm", _cli_warm, prefill=True),
        # verify_input over enumerated protocols; Karp-Miller and Pottier
        # stay idle.
        Workload("bb-search", _bb_search, cold_cache=True),
        # Both simulation engines; the exact analyses and the cache are
        # bypassed, so an analysis speed-up must not move this workload.
        Workload("simulate-ensemble", _simulate_ensemble),
    )
}

# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_s", "s"),
    ("cold_start_s", "s"),
    ("peak_rss_mb", "MB"),
)

_ALL = tuple(WORKLOADS)
_ANALYSIS = ("analyze-cold",)
_CACHED = ("analyze-cold", "cli-warm", "bb-search")
_WRITES = ("analyze-cold", "bb-search")
_BB = ("bb-search",)
_SIM = ("simulate-ensemble",)

# (name, unit, workloads on which the layer does work, so the traced run
# must see a non-zero value there).  Times and counts are per pass; the
# us/ns rates and ratios are taken over the whole run.
LAYER_METRICS = (
    ("cli.import_s", "s", _ALL),
    ("cli.main.self_s", "s", _ALL),
    ("cli.unattributed_s", "s", _ALL),
    ("obs.RunRecorder.open.self_s", "s", _ALL),
    ("obs.RunRecorder.finalize.self_s", "s", _ALL),
    ("cache.protocol_fingerprint.self_s", "s", _CACHED),
    ("cache.protocol_fingerprint.calls", "count", _CACHED),
    ("cache.CacheStore.get_payload.self_s", "s", _CACHED),
    ("cache.CacheStore.get_payload.calls", "count", _CACHED),
    ("cache.CacheStore.put_payload.self_s", "s", _WRITES),
    ("cache.CacheStore.put_payload.calls", "count", _WRITES),
    ("cache.hits", "count", _CACHED),
    ("cache.misses", "count", _WRITES),
    ("cache.hit_ratio", "ratio", _CACHED),
    ("reachability.karp_miller.self_s", "s", _ANALYSIS),
    ("reachability.karp_miller.calls", "count", ("analyze-cold", "cli-warm")),
    ("reachability.km_expansions", "count", _ANALYSIS),
    ("reachability.km_us_per_expansion", "us", _ANALYSIS),
    ("reachability.configuration_symmetries.self_s", "s", _ANALYSIS),
    ("reachability.configuration_symmetries.calls", "count", _ANALYSIS),
    ("diophantine.solve_equalities.self_s", "s", _ANALYSIS),
    ("diophantine.solve_equalities.calls", "count", _ANALYSIS),
    ("diophantine.frontier_vectors", "count", _ANALYSIS),
    ("diophantine.us_per_vector", "us", _ANALYSIS),
    ("analysis.verify_input.self_s", "s", ("bb-search", "cli-warm")),
    ("analysis.verify_input.calls", "count", ("bb-search", "cli-warm")),
    ("analysis.stable_slice.self_s", "s", _ANALYSIS),
    ("analysis.saturation_sequence.self_s", "s", _ANALYSIS),
    ("bounds.section4_certificate.self_s", "s", _ANALYSIS),
    ("bounds.section5_certificate.self_s", "s", _ANALYSIS),
    ("bounds.busy_beaver_search.self_s", "s", _BB),
    ("bounds.protocols_enumerated", "count", _BB),
    ("bounds.us_per_protocol", "us", _BB),
    ("simulation.CountScheduler.run.self_s", "s", _SIM),
    ("simulation.count_interactions", "count", _SIM),
    ("simulation.count_ns_per_interaction", "ns", _SIM),
    ("simulation.VectorEnsembleScheduler.run.self_s", "s", ("simulate-ensemble", "cli-warm")),
    ("simulation.VectorEnsembleScheduler.leap.calls", "count", ("simulate-ensemble", "cli-warm")),
    ("simulation.vector_us_per_leap", "us", _SIM),
    ("scenarios.run_checks.self_s", "s", ("cli-warm",)),
    ("trace_overhead_frac", "ratio", ()),
)
_RUN_WIDE_UNITS = ("us", "ns", "ratio")

# (metric, span counter folded by the program's own tracer spans)
_SPAN_COUNTERS = (
    ("reachability.km_expansions", "coverability.karp_miller.expansions"),
    ("diophantine.frontier_vectors", "pottier.solve_equalities.frontier_vectors"),
    ("bounds.protocols_enumerated", "bounds.busy_beaver.enumerated"),
)

_CACHE_LINE = re.compile(r"^cache: (\d+) hits, (\d+) misses", re.MULTILINE)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Running operations
# ----------------------------------------------------------------------


class SetupError(RuntimeError):
    """The program cannot be run from this checkout."""


@dataclass
class OpResult:
    op: Op
    wall_s: float
    rss_mb: float
    hits: int = 0
    misses: int = 0
    stats: Optional[dict] = None  # traced_child.py output
    scale: float = 1.0  # to the reference host speed, from calibrate()

    @property
    def time_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Pass:
    traced: bool
    ops: List[OpResult]

    @property
    def time_s(self) -> float:
        """Sum of the ops' times (harness work between ops excluded)."""
        return sum(r.time_s for r in self.ops)


@dataclass
class RunLog:
    expected: Dict[str, str] = field(default_factory=dict)  # op key -> stdout
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    calibrations: List[float] = field(default_factory=list)  # wall s of each


class Sandbox:
    """Per-run state directories inside the checkout, removed on close.

    Children get their own HOME, XDG dirs, cache, flight-recorder runs
    directory, TMPDIR and bytecode cache here, so a run never touches the
    user's ``~/.cache/repro`` or ``~/.local/state/repro/runs``.
    """

    _DIRS = ("home", "cache", "runs", "state", "xdg-cache", "tmp", "cwd")

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self.state = self.root / "state"
        self.reset()

    def path(self, name: str) -> Path:
        return self.state / name

    def reset(self) -> None:
        """Fresh, empty state for one set-up."""
        shutil.rmtree(self.state, ignore_errors=True)
        for name in self._DIRS:
            self.path(name).mkdir(parents=True)

    def empty_cache(self) -> None:
        shutil.rmtree(self.path("cache"))
        self.path("cache").mkdir()

    def env(self) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "PYTHON"))}
        env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            # Bytecode is cached as for an installed package, but inside
            # the sandbox (filled by compile_bytecode).
            PYTHONPYCACHEPREFIX=str(self.root / "pycache"),
            HOME=str(self.path("home")),
            XDG_STATE_HOME=str(self.path("state")),
            XDG_CACHE_HOME=str(self.path("xdg-cache")),
            REPRO_CACHE_DIR=str(self.path("cache")),
            REPRO_RUNS_DIR=str(self.path("runs")),
            TMPDIR=str(self.path("tmp")),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            # Recorded runs ask git for the commit; stop its search at the
            # sandbox so every checkout, git or not, pays the same.
            GIT_CEILING_DIRECTORIES=str(self.root),
        )
        return env

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


def _spawn(box: Sandbox, argv: Sequence[str]) -> Tuple[int, float, float, str, str]:
    """Run one child to completion: (exit code, wall s, peak RSS MB, stdout, stderr)."""
    out_path, err_path = box.path("tmp") / "stdout", box.path("tmp") / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=box.path("cwd"), env=box.env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr


def _without_timers(value):
    """JSON with wall-clock ``timers`` blocks dropped: the rest must repeat."""
    if isinstance(value, dict):
        return {k: _without_timers(v) for k, v in value.items() if k != "timers"}
    if isinstance(value, list):
        return [_without_timers(v) for v in value]
    return value


def _output_error(op: Op, code: int, stdout: str, log: RunLog) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    try:
        problem = op.check(stdout)
        if "--json" in op.argv:
            stdout = json.dumps(_without_timers(json.loads(stdout)), sort_keys=True)
    except (ValueError, KeyError, TypeError) as error:
        return f"unparseable output: {error!r}"
    if problem is not None:
        return problem
    if log.expected.setdefault(op.key, stdout) != stdout:
        return "stdout differs from this op's first run"
    return None


def run_op(box: Sandbox, op: Op, log: RunLog, *, traced: bool = False) -> OpResult:
    stats_path = box.path("tmp") / "layers.json"
    if traced:
        argv = [sys.executable, str(TRACED_CHILD), "--stats", str(stats_path), "--", *op.argv]
    else:
        argv = [sys.executable, "-m", "repro", *op.argv]
    code, wall, rss, stdout, stderr = _spawn(box, argv)
    log.attempted += 1
    error = _output_error(op, code, stdout, log)
    if error is not None:
        log.errors.append(f"repro {op.key}: {error}\n{stderr[-2000:]}")
    cache = _CACHE_LINE.search(stderr)
    result = OpResult(op, wall, rss)
    if cache:
        result.hits, result.misses = int(cache.group(1)), int(cache.group(2))
    if traced and stats_path.exists():
        result.stats = json.loads(stats_path.read_text())
        stats_path.unlink()
    return result


def calibrate(box: Sandbox, log: RunLog) -> float:
    """Time one calibration child: the host's current speed.

    Returns the factor taking a wall time measured between the previous
    calibration and this one to the reference host speed.
    """
    code, wall, _, _, stderr = _spawn(box, [sys.executable, "-c", CALIBRATION])
    if code != 0:
        raise SetupError(f"calibration child failed: {stderr[-2000:]}")
    previous = log.calibrations[-1] if log.calibrations else wall
    log.calibrations.append(wall)
    return REFERENCE_CALIBRATION_S / ((previous + wall) / 2)


def run_calibrated(box: Sandbox, op: Op, log: RunLog, *, traced: bool = False) -> OpResult:
    result = run_op(box, op, log, traced=traced)
    result.scale = calibrate(box, log)
    return result


def run_pass(
    box: Sandbox, workload: Workload, ops: Sequence[Op], rng: random.Random,
    log: RunLog, *, traced: bool,
) -> Pass:
    order = list(ops)
    rng.shuffle(order)
    results = []
    for op in order:
        if workload.cold_cache:
            box.empty_cache()
        results.append(run_calibrated(box, op, log, traced=traced))
    return Pass(traced, results)


def compile_bytecode(box: Sandbox) -> None:
    """Fill the sandbox's bytecode cache, as installing a package does.

    Not part of ``setup_s``: otherwise the first set-up of every run would
    also pay for compiling the sources and everything ``repro.cli`` imports.
    """
    code, _, _, _, stderr = _spawn(box, [
        sys.executable, "-c",
        f"import compileall, repro.cli; compileall.compile_dir({str(SRC)!r}, quiet=1)",
    ])
    if code != 0:
        raise SetupError(f"cannot compile {SRC}: {stderr[-2000:]}")


def set_up(box: Sandbox, workload: Workload, ops: Sequence[Op], log: RunLog) -> float:
    """Fresh state, an import check and, for warm workloads, the cache fill."""
    start = time.perf_counter()
    box.reset()
    code, _, _, stdout, stderr = _spawn(
        box, [sys.executable, "-c", "import repro; print(repro.__file__)"]
    )
    if code != 0 or not Path(stdout.strip()).resolve().is_relative_to(SRC):
        raise SetupError(f"cannot import repro from {SRC}: {stdout.strip()} {stderr[-2000:]}")
    if workload.prefill:
        for op in ops:
            run_op(box, op, log)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Metric computation
# ----------------------------------------------------------------------


def _op_times(passes: List[Pass]) -> Dict[str, List[float]]:
    """Times of each distinct op over the untraced passes."""
    times: Dict[str, List[float]] = {}
    for r in (r for p in passes if not p.traced for r in p.ops):
        times.setdefault(r.op.key, []).append(r.time_s)
    return times


def end_to_end_metrics(setups: List[float], passes: List[Pass], probes: List[OpResult]) -> dict:
    ops = [r for p in passes for r in p.ops]
    by_op = _op_times(passes)
    helps = [r.time_s for r in ops + probes if r.op.argv == HELP]
    values = {
        "setup_s": (median(setups), len(setups)),
        "pass_s": (median([p.time_s for p in passes]), len(passes)),
        # Median over the workload's distinct ops of each op's median, so
        # one slow outlier cannot flip which op the median lands on.
        "op_p50_s": (median([median(t) for t in by_op.values()]), len(ops)),
        "cold_start_s": (median(helps), len(helps)),
        "peak_rss_mb": (max(r.rss_mb for r in ops), len(ops)),
    }
    return {
        name: {"value": values[name][0], "unit": unit, "samples": values[name][1]}
        for name, unit in END_TO_END
    }


def _layer_values(results: Sequence[OpResult]) -> Dict[str, float]:
    """Every per-layer metric except trace_overhead_frac, summed over ``results``.

    Times are rescaled with each op's own calibration factor.
    """
    functions: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, int] = {}
    import_s = unattributed = 0.0
    for r in results:
        stats = r.stats or {"import_s": 0.0, "functions": {}, "counters": {}}
        for name, entry in stats["functions"].items():
            total = functions.setdefault(name, {})
            for key, value in entry.items():
                total[key] = total.get(key, 0) + value * (r.scale if key.endswith("_s") else 1)
        for key, value in stats["counters"].items():
            counters[key] = counters.get(key, 0) + value
        op_main = stats["functions"].get("cli.main", {}).get("total_s", 0.0)
        import_s += stats["import_s"] * r.scale
        unattributed += (r.wall_s - stats["import_s"] - op_main) * r.scale

    def fn(name: str, key: str) -> float:
        return functions.get(name, {}).get(key, 0)

    values = {"cli.import_s": import_s, "cli.unattributed_s": unattributed}
    for metric, _, _ in LAYER_METRICS:
        for suffix in (".self_s", ".calls"):
            if metric.endswith(suffix):
                values[metric] = fn(metric[: -len(suffix)], suffix[1:])
    for metric, counter in _SPAN_COUNTERS:
        values[metric] = counters.get(counter, 0)
    hits, misses = sum(r.hits for r in results), sum(r.misses for r in results)
    interactions = fn("simulation.CountScheduler.run", "counter")
    values.update({
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "reachability.km_us_per_expansion": _ratio(
            1e6 * fn("reachability.karp_miller", "total_s"), values["reachability.km_expansions"]),
        "diophantine.us_per_vector": _ratio(
            1e6 * fn("diophantine.solve_equalities", "total_s"),
            values["diophantine.frontier_vectors"]),
        "bounds.us_per_protocol": _ratio(
            1e6 * fn("bounds.busy_beaver_search", "total_s"),
            values["bounds.protocols_enumerated"]),
        "simulation.count_interactions": interactions,
        "simulation.count_ns_per_interaction": _ratio(
            1e9 * fn("simulation.CountScheduler.run", "total_s"), interactions),
        "simulation.vector_us_per_leap": _ratio(
            1e6 * fn("simulation.VectorEnsembleScheduler.leap", "total_s"),
            fn("simulation.VectorEnsembleScheduler.leap", "calls")),
    })
    return values


def layer_metrics(passes: List[Pass]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [_layer_values(p.ops) for p in traced]
    run_wide = _layer_values([r for p in traced for r in p.ops])
    run_wide["trace_overhead_frac"] = (
        median([p.time_s for p in traced]) / median([p.time_s for p in plain]) - 1
    )
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        if unit in _RUN_WIDE_UNITS:
            value, samples = run_wide[name], len(traced)
        else:
            value, samples = median([v[name] for v in per_pass]), len(per_pass)
        metrics[name] = {"value": value, "unit": unit, "samples": samples}
    return metrics


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------


def run_workload(
    workload: Workload, *, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """One run: set-up, timed passes, checked outputs; returns the result."""
    start = time.perf_counter()
    rng = random.Random(seed)
    ops = workload.ops(rng)
    log = RunLog()
    passes: List[Pass] = []
    probes: List[OpResult] = []
    box = Sandbox()
    try:
        compile_bytecode(box)
        calibrate(box, log)
        setups = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            wall = set_up(box, workload, ops, log)
            setups.append(wall * calibrate(box, log))
        help_op = Op(HELP, _starts_with("usage: repro"))
        while True:
            pass_start = time.perf_counter()
            passes.append(run_pass(box, workload, ops, rng, log, traced=False))
            if trace:
                passes.append(run_pass(box, workload, ops, rng, log, traced=True))
            else:
                for _ in range(HELP_PROBES):
                    probes.append(run_calibrated(box, help_op, log))
            now = time.perf_counter()
            # Stop unless another pass, as long as this one, ends in time.
            if smoke or now + (now - pass_start) > start + seconds:
                break
    finally:
        box.close()
    if trace:
        metrics = layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(setups, passes, probes)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not log.errors,
        "attempted": log.attempted,
        "failed": len(log.errors),
        "metrics": metrics,
        "calibration_s": median(log.calibrations),
        "op_median_s": {key: median(times) for key, times in _op_times(passes).items()},
        "errors": log.errors[:5],
    }


def _report(result: dict) -> None:
    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['attempted']} ops, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"n={metric['samples']}")
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = {
        name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()
    }
    print(json.dumps(line), flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of a run, set-up included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one pass per run, ignoring --seconds")
    parser.add_argument("--out", help="append each run's full result as a JSON line")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C: the running child is killed and waited
    # for, and the sandbox is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], seed=args.seed, seconds=args.seconds,
                                  trace=bool(args.trace), smoke=args.smoke)
        except SetupError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            return 130
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(result) + "\n")
        _report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
