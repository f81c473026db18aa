"""Observability: span tracing, metrics, and progress heartbeats.

The toolkit's searches (Karp–Miller coverability, Pottier completion,
the Lemma 5.4 saturation sequence, stable-slice extraction, the
certificate pipelines, the busy-beaver enumeration) are fixed-point
computations whose running time the paper proves can be astronomical.
This package makes them observable from three angles:

* :mod:`repro.obs.tracer` — nested spans with attributes and per-span
  counters; disabled by default via a zero-cost null singleton;
* :mod:`repro.obs.exporters` — JSONL event logs and Chrome trace-event
  JSON (Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.progress` — rate-limited heartbeats (frontier size,
  basis size, iterations/sec) for the iterative loops;
* :mod:`repro.obs.metrics` — the process-wide registry of counters,
  timers and histograms that finished spans and the cache fold into;
* :mod:`repro.obs.summary` — reading traces back, and the per-span-name
  table behind ``repro trace summarize`` (a view of the profile fold);
* :mod:`repro.obs.profile` — the one fold of recorded spans:
  deterministic hierarchical work profiles (per-path self/total time
  and counters), profile diffing, and the finding type and change
  rules that ``repro profile diff`` and ``repro bench compare`` share;
* :mod:`repro.obs.bench` / :mod:`repro.obs.ledger` — the benchmark
  workload registry and the persistent performance ledger behind
  ``repro bench run / compare / baseline``; the ledger's traced pass
  is the one place a workload runs under a recording tracer, and an
  entry keeps each work count once (span counters per path, the
  workload's own counts beside them);
* :mod:`repro.obs.runs` / :mod:`repro.obs.report` — the flight
  recorder: a persistent run registry every CLI invocation records
  into (a manifest and one stream of spans and events; crash/kill
  capture) and the static HTML report renderer behind ``repro runs``.
"""

from .bench import (
    Workload,
    get_workload,
    iter_workloads,
    register_workload,
    suite_names,
)
from .exporters import (
    ChromeTraceExporter,
    JsonlExporter,
    RecordingExporter,
    exporter_for_path,
)
from .ledger import (
    DEFAULT_BASELINE_PATH,
    ComparisonReport,
    LedgerError,
    SCHEMA_VERSION,
    compare_artifacts,
    environment_fingerprint,
    load_artifact,
    run_suite,
    trace_workload,
    write_artifact,
)
from .metrics import (
    Histogram,
    HistogramSnapshot,
    Instrumentation,
    InstrumentationSnapshot,
    clear_registry,
    get_metrics,
    registry_snapshot,
)
from .progress import (
    ProgressMeter,
    disable_progress,
    enable_progress,
    progress,
    progress_enabled,
    set_progress_interval,
)
from .profile import (
    Finding,
    Profile,
    ProfileDiff,
    ProfileError,
    build_profile,
    diff_profiles,
    load_profile,
    render_profile,
    to_folded,
    to_speedscope,
    write_profile,
)
from .report import render_run_report
from .runs import (
    RunRecorder,
    RunsError,
    RunsSchemaError,
    current_run,
    gc_runs,
    list_runs,
    load_manifest,
    resolve_run_id,
    runs_root,
    set_current_run,
)
from .summary import SpanRecord, load_trace, summarize_trace, trace_summary
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanExporter,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "SpanExporter",
    "get_tracer",
    "set_tracer",
    "JsonlExporter",
    "ChromeTraceExporter",
    "RecordingExporter",
    "exporter_for_path",
    "ProgressMeter",
    "progress",
    "enable_progress",
    "disable_progress",
    "progress_enabled",
    "set_progress_interval",
    "Instrumentation",
    "InstrumentationSnapshot",
    "Histogram",
    "HistogramSnapshot",
    "RunRecorder",
    "RunsError",
    "RunsSchemaError",
    "current_run",
    "set_current_run",
    "runs_root",
    "list_runs",
    "load_manifest",
    "resolve_run_id",
    "gc_runs",
    "render_run_report",
    "get_metrics",
    "registry_snapshot",
    "clear_registry",
    "SpanRecord",
    "load_trace",
    "summarize_trace",
    "trace_summary",
    "Profile",
    "ProfileDiff",
    "ProfileError",
    "Finding",
    "build_profile",
    "diff_profiles",
    "load_profile",
    "render_profile",
    "to_folded",
    "to_speedscope",
    "write_profile",
    "Workload",
    "register_workload",
    "get_workload",
    "iter_workloads",
    "suite_names",
    "SCHEMA_VERSION",
    "LedgerError",
    "run_suite",
    "trace_workload",
    "write_artifact",
    "load_artifact",
    "environment_fingerprint",
    "compare_artifacts",
    "ComparisonReport",
    "DEFAULT_BASELINE_PATH",
]
