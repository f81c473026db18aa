"""The performance ledger: persistent benchmark artifacts and diffs.

The searches this repo reproduces have Ackermannian worst cases, so
"fast as the hardware allows" is meaningless without a longitudinal
record: which commit made the Karp–Miller loop 2× slower, which one
doubled the Pottier completion's memory.  The ledger turns one run of
the workload registry (:mod:`repro.obs.bench`) into a schema-versioned
JSON artifact and compares any two artifacts with robust change
detection.

Measurement protocol, per workload:

1. **Warm-up** — one unrecorded run (imports, caches; the cache
   ``*_warm`` workloads fill their directory here).
2. **Timing passes** — ``repeats`` runs under the *null* tracer (the
   production configuration), reduced to median and MAD.  Median/MAD
   rather than mean/stddev because shared runners produce heavy-tailed
   timing noise; a single descheduling event must not poison the
   artifact.
3. **Memory pass** — one run under the null tracer with ``tracemalloc``
   running: the tracemalloc **peak** over the run and the net
   allocation delta.  Never timed — tracemalloc costs an order of
   magnitude on allocation-heavy code — and skipped with
   ``memory=False``.
4. **Traced pass** (:func:`trace_workload`) — one run under a live
   tracer whose spans are folded by :func:`repro.obs.profile.build_profile`.
   Each deterministic work count is stored once: a span counter under
   its span path (``work_paths``, the profile's
   :meth:`~repro.obs.profile.Profile.work_counts`), and a count no span
   records as the workload's own (``work``, its return dict).

Comparison semantics (:func:`compare_artifacts`), with the rules and
the finding type of :mod:`repro.obs.profile`:

* **work counts** — exact (:func:`~repro.obs.profile.counter_drift`):
  any count that differs, appears or vanishes is a finding, in ``work``
  and on every path of ``work_paths``, so a span finding names its own
  path.  Wall clock on CI is noise; ``nodes expanded`` is not.
* **time** — a regression needs *both* a relative excess over the
  threshold *and* a robust-significance excess (the median delta must
  exceed ``3 * (MAD_a + MAD_b)`` plus an absolute floor), so MAD-sized
  jitter on a quiet workload never fires
  (:func:`~repro.obs.profile.significant`).
* **memory** — same rule against the tracemalloc peaks, with a
  coarser default threshold (allocator layout shifts between Python
  versions).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .bench import Workload, iter_workloads
from .exporters import RecordingExporter
from .metrics import get_metrics
from .profile import Finding, Profile, build_profile, counter_drift, significant
from .progress import progress
from .tracer import NULL_TRACER, Tracer, set_tracer

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_KIND",
    "LedgerError",
    "run_suite",
    "trace_workload",
    "write_artifact",
    "load_artifact",
    "environment_fingerprint",
    "ComparisonReport",
    "compare_artifacts",
    "DEFAULT_BASELINE_PATH",
]

SCHEMA_VERSION = 3
ARTIFACT_KIND = "repro-bench-ledger"

# The committed seed baseline CI compares against (repo-relative).
DEFAULT_BASELINE_PATH = os.path.join("benchmarks", "baselines", "BENCH_seed.json")


class LedgerError(ValueError):
    """Malformed, missing, or schema-incompatible ledger artifact."""


# ----------------------------------------------------------------------
# Running a suite
# ----------------------------------------------------------------------


def environment_fingerprint(jobs: int) -> Dict[str, Any]:
    """Where and how this artifact was produced (stored verbatim)."""
    try:
        sha = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
    }


def _median_mad(samples: Sequence[float]) -> Dict[str, float]:
    median = statistics.median(samples)
    mad = statistics.median(abs(s - median) for s in samples)
    return {"median_s": median, "mad_s": mad}


def trace_workload(
    workload: Workload, *, jobs: int = 1
) -> Tuple[Dict[str, int], Profile]:
    """The traced pass: run ``workload`` once under a recording tracer.

    Returns the workload's own work counts (its return dict) and the
    run's :class:`~repro.obs.profile.Profile`, whose
    :meth:`~repro.obs.profile.Profile.work_counts` hold every span
    counter by path.  The live tracer also folds its spans into the
    ``spans`` metrics registry; that entry is put back as it was, so
    the pass leaves the process's registries as it found them.
    """
    recorder = RecordingExporter()
    tracer = Tracer([recorder])
    spans = get_metrics("spans")
    saved = spans.snapshot()
    previous = set_tracer(tracer)
    try:
        own = workload.run(jobs=jobs)
    finally:
        tracer.close()
        set_tracer(previous)
        spans.clear()
        spans.merge(saved)
    profile = build_profile(
        recorder.records, meta={"workload": workload.name, "jobs": jobs}
    )
    return own, profile


def _memory_pass(workload: Workload, jobs: int) -> Tuple[float, float]:
    """``(peak_kb, net_kb)`` of one run, as tracemalloc sees it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base_current, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        workload.run(jobs=jobs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return (
        round((peak - base_current) / 1024.0, 1),
        round((current - base_current) / 1024.0, 1),
    )


def _measure_workload(
    workload: Workload, *, repeats: int, jobs: int, memory: bool
) -> Dict[str, Any]:
    """The measurement protocol for one workload (module docstring).

    Runs under ``cache_disabled()`` so the ambient analysis cache never
    contaminates timings or work counts; the ``cache.*`` workloads
    re-enable a store of their own inside the run, which nests cleanly.
    """
    # Imported here, not at module level: repro.cache imports the obs
    # metrics registry, so the obs package must not import cache eagerly.
    from ..cache.store import cache_disabled

    with cache_disabled():
        # Force the null tracer so we measure the production
        # configuration even when the surrounding CLI run is traced.
        previous = set_tracer(NULL_TRACER)
        try:
            workload.run(jobs=jobs)  # warm-up, never recorded
            times: List[float] = []
            for _ in range(repeats):
                start = time.perf_counter()
                workload.run(jobs=jobs)
                times.append(time.perf_counter() - start)
            peak_kb, net_kb = _memory_pass(workload, jobs) if memory else (None, None)
        finally:
            set_tracer(previous)
        work, profile = trace_workload(workload, jobs=jobs)
    return {
        "repeats": repeats,
        "times_s": [round(t, 6) for t in times],
        **{k: round(v, 6) for k, v in _median_mad(times).items()},
        "peak_kb": peak_kb,
        "net_kb": net_kb,
        "work": work,
        "work_paths": profile.work_counts(),
    }


def run_suite(
    suite: str = "micro",
    *,
    repeats: int = 5,
    jobs: int = 1,
    memory: bool = True,
    progress_label: str = "bench",
    workload_filter: Optional[Callable[[Workload], bool]] = None,
) -> Dict[str, Any]:
    """Run every workload in ``suite``; returns the artifact dict."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    workloads = iter_workloads(suite)
    if workload_filter is not None:
        workloads = [w for w in workloads if workload_filter(w)]
    if not workloads:
        raise LedgerError(f"suite {suite!r} selected no workloads")
    done = 0
    meter = progress(
        progress_label, lambda: {"workloads_done": done, "workloads": len(workloads)}
    )
    results: Dict[str, Any] = {}
    for workload in workloads:
        results[workload.name] = _measure_workload(
            workload, repeats=repeats, jobs=jobs, memory=memory
        )
        results[workload.name]["description"] = workload.description
        done += 1
        meter.tick()
    meter.finish()
    return {
        "kind": ARTIFACT_KIND,
        "schema": SCHEMA_VERSION,
        "created_unix": round(time.time(), 3),
        "suite": suite,
        "repeats": repeats,
        "memory": memory,
        "env": environment_fingerprint(jobs),
        "workloads": results,
    }


def write_artifact(path: str, artifact: Mapping[str, Any]) -> None:
    """Serialise an artifact as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> Dict[str, Any]:
    """Read and schema-check one ``BENCH_*.json`` artifact."""
    try:
        with open(path) as handle:
            artifact = json.load(handle)
    except OSError as error:
        raise LedgerError(f"cannot read artifact {path!r}: {error}")
    except json.JSONDecodeError as error:
        raise LedgerError(f"artifact {path!r} is not valid JSON: {error}")
    if not isinstance(artifact, dict) or artifact.get("kind") != ARTIFACT_KIND:
        raise LedgerError(
            f"artifact {path!r} is not a {ARTIFACT_KIND} artifact"
        )
    if artifact.get("schema") != SCHEMA_VERSION:
        raise LedgerError(
            f"artifact {path!r} has schema {artifact.get('schema')!r}, "
            f"this build reads schema {SCHEMA_VERSION}"
        )
    if not isinstance(artifact.get("workloads"), dict):
        raise LedgerError(f"artifact {path!r} has no workloads table")
    return artifact


# ----------------------------------------------------------------------
# Comparing two artifacts
# ----------------------------------------------------------------------

# A median delta below this is never significant, whatever the ratio —
# sub-millisecond workloads jitter by full multiples on shared runners.
_TIME_FLOOR_S = 0.002
_MEMORY_FLOOR_KB = 256.0


@dataclass
class ComparisonReport:
    """Everything ``repro bench compare`` prints and gates on."""

    base_path: str
    new_path: str
    findings: List[Finding] = field(default_factory=list)
    rows: List[List[str]] = field(default_factory=list)

    def regressions(self, kinds: Optional[Sequence[str]] = None) -> List[Finding]:
        """Regression findings, optionally restricted to some kinds."""
        return [
            f
            for f in self.findings
            if f.regression and (kinds is None or f.kind in kinds)
        ]

    def ok(self, fail_on: str = "any") -> bool:
        """Gate: ``any`` fails on every regression kind; ``work`` only
        on exact-work drift and missing workloads (the CI shared-runner
        policy, where wall clock is advisory)."""
        if fail_on == "any":
            return not self.regressions()
        if fail_on == "work":
            return not self.regressions(kinds=("work", "missing"))
        raise ValueError(f"fail_on must be 'any' or 'work', got {fail_on!r}")

    def render(self) -> str:
        from ..fmt import render_table

        table = render_table(
            ["workload", "base", "new", "Δ time", "base peak", "new peak", "verdict"],
            self.rows,
        )
        lines = [f"base: {self.base_path}", f"new:  {self.new_path}", "", table]
        if self.findings:
            lines.append("")
            lines.extend(f.render() for f in self.findings)
        else:
            lines.append("\nno significant changes detected")
        return "\n".join(lines)


def _fmt_time(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.3f}s"


def _fmt_kb(kb: Optional[float]) -> str:
    if kb is None:
        return "-"
    if kb >= 1024:
        return f"{kb / 1024:.1f}MB"
    return f"{kb:.0f}KB"


def compare_artifacts(
    base: Mapping[str, Any],
    new: Mapping[str, Any],
    *,
    time_threshold: float = 0.25,
    memory_threshold: float = 0.50,
    base_path: str = "<base>",
    new_path: str = "<new>",
) -> ComparisonReport:
    """Diff two loaded artifacts into a :class:`ComparisonReport`."""
    for label, artifact in (("base", base), ("new", new)):
        if artifact.get("schema") != SCHEMA_VERSION:
            raise LedgerError(
                f"{label} artifact has schema {artifact.get('schema')!r}, "
                f"expected {SCHEMA_VERSION}"
            )
    report = ComparisonReport(base_path=base_path, new_path=new_path)
    base_workloads: Dict[str, Any] = base["workloads"]
    new_workloads: Dict[str, Any] = new["workloads"]

    for name in sorted(set(base_workloads) | set(new_workloads)):
        if name not in new_workloads:
            report.findings.append(
                Finding(name, "missing", "workload present in base but not in new run", True)
            )
            continue
        if name not in base_workloads:
            report.findings.append(
                Finding(name, "added", "new workload (no baseline yet)", False)
            )
            continue
        entry_base, entry_new = base_workloads[name], new_workloads[name]
        verdicts: List[str] = []

        # Exact work counts: any drift is a hard finding, and so is a
        # count that appears or vanishes (a counter that stopped
        # counting, a path no longer taken).  Span counters are diffed
        # per path, so each finding names where its work moved.
        drifts: List[str] = []
        drift = counter_drift(entry_base.get("work", {}), entry_new.get("work", {}))
        if drift:
            drifts.append(f"work-count drift ({drift})")
        paths_base = entry_base.get("work_paths", {})
        paths_new = entry_new.get("work_paths", {})
        for path in sorted(set(paths_base) | set(paths_new)):
            drift = counter_drift(paths_base.get(path, {}), paths_new.get(path, {}))
            if drift:
                drifts.append(f"work drift at {path} ({drift})")
        if drifts:
            report.findings.extend(Finding(name, "work", d, True) for d in drifts)
            verdicts.append("work drift")

        # Robust wall-clock comparison.
        t_base, t_new = entry_base["median_s"], entry_new["median_s"]
        mad_base = entry_base.get("mad_s", 0.0)
        mad_new = entry_new.get("mad_s", 0.0)
        if significant(
            t_base, t_new, mad_base, mad_new,
            threshold=time_threshold, floor=_TIME_FLOOR_S,
        ):
            report.findings.append(
                Finding(
                    name,
                    "time",
                    f"median {_fmt_time(t_base)} -> {_fmt_time(t_new)} "
                    f"({t_new / t_base:.2f}x, threshold {1 + time_threshold:.2f}x)",
                    True,
                )
            )
            verdicts.append(f"time {t_new / t_base:.2f}x")
        elif significant(
            t_new, t_base, mad_new, mad_base,
            threshold=time_threshold, floor=_TIME_FLOOR_S,
        ):
            report.findings.append(
                Finding(
                    name,
                    "time",
                    f"improved: median {_fmt_time(t_base)} -> {_fmt_time(t_new)} "
                    f"({t_base / t_new:.2f}x faster)",
                    False,
                )
            )
            verdicts.append("faster")

        # Memory peaks, when both artifacts carried the memory pass.
        m_base, m_new = entry_base.get("peak_kb"), entry_new.get("peak_kb")
        if m_base is not None and m_new is not None:
            if significant(
                m_base, m_new, 0.0, 0.0,
                threshold=memory_threshold, floor=_MEMORY_FLOOR_KB,
            ):
                report.findings.append(
                    Finding(
                        name,
                        "memory",
                        f"peak {_fmt_kb(m_base)} -> {_fmt_kb(m_new)} "
                        f"({m_new / max(m_base, 1e-9):.2f}x)",
                        True,
                    )
                )
                verdicts.append("memory")

        delta_pct = (t_new / t_base - 1.0) * 100 if t_base > 0 else 0.0
        report.rows.append(
            [
                name,
                _fmt_time(t_base),
                _fmt_time(t_new),
                f"{delta_pct:+.1f}%",
                _fmt_kb(m_base),
                _fmt_kb(m_new),
                "; ".join(verdicts) or "ok",
            ]
        )
    return report
