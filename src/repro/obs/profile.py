"""Hierarchical work profiles: deterministic span-path aggregation.

The ledger (:mod:`repro.obs.ledger`) gates CI on *exact* work counts,
and the flight recorder (:mod:`repro.obs.runs`) keeps every run's span
trace — but neither says *where* a regression lives.  A failed
``repro bench compare`` names a workload; the engineer still has to
bisect which span subtree doubled its expansions.  This module closes
that gap with a profile model built from finished spans:

* every span is assigned a **name path** — the chain of ancestor span
  names from the root down (``certify.section4;coverability.karp_miller``);
* per path the profile aggregates call count, total and *self* wall
  time (total minus direct children), the summed per-span counters
  (the deterministic work), robust per-call timing (median/MAD), and
  the maximum memory peak when the trace carried memory spans.

Two properties make the profile a determinism contract, not just a
pretty table:

1. **Arrival-order invariance.**  Every aggregate is a commutative
   reduction (sum, max, order-statistics over a multiset), so shuffling
   the span records — which happens naturally when parallel workers
   finish out of order — produces a bit-identical profile.
2. **Shard-adoption invariance.**  The parallel pool wraps adopted
   worker spans in ``parallel.pool`` / ``parallel.task`` container
   spans (:mod:`repro.parallel.pool`).  Those containers are pure
   plumbing: the profile *splices them out* of every path, attaching
   worker spans to the grandparent, so a workload's **work-count
   profile** (path → summed counters; call counts excluded, since
   chunking varies with ``--jobs``) is identical at ``--jobs 1/2/4``
   — the repo's serial≡parallel contract, extended to profiles.

On top of the model: folded-stack (``a;b;c value``) and speedscope
JSON exporters, a schema-versioned profile artifact, and a profile
diff.  The diff's pieces are the ones ``repro bench compare`` uses
too: one :class:`Finding`, the exact counter rule
(:func:`counter_drift`: any counter that differs, appears or vanishes)
and the MAD-robust change test (:func:`significant`).  Every ledger
entry stores its traced pass's :meth:`Profile.work_counts` as
``work_paths``, so the compare applies the counter rule path by path
and each finding names its own path, without running anything.  The
by-name table behind ``repro trace summarize``
(:func:`repro.obs.summary.trace_summary`) is a view of this fold too.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .summary import SpanRecord

__all__ = [
    "PROFILE_KIND",
    "PROFILE_SCHEMA",
    "PLUMBING_SPANS",
    "PATH_SEP",
    "ProfileError",
    "PathStats",
    "Profile",
    "build_profile",
    "profile_to_dict",
    "profile_from_dict",
    "load_profile",
    "write_profile",
    "to_folded",
    "to_speedscope",
    "render_profile",
    "Finding",
    "significant",
    "counter_drift",
    "ProfileDiff",
    "diff_profiles",
]

PROFILE_KIND = "repro-work-profile"
PROFILE_SCHEMA = 1

# Container spans the parallel backend emits around adopted worker
# spans.  They carry no algorithmic work, and their shape depends on
# --jobs and chunking — splicing them out of every path is what makes
# profiles comparable across serial and parallel runs.
PLUMBING_SPANS = frozenset({"parallel.pool", "parallel.task"})

PATH_SEP = ";"

# A self-time delta below this is never significant (the ledger's
# 2 ms floor, in microseconds).
_TIME_FLOOR_US = 2000.0
_MAD_SIGMA = 3.0


class ProfileError(ValueError):
    """Malformed, missing, or schema-incompatible profile artifact."""


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PathStats:
    """Aggregates for one span name path (self = minus direct children)."""

    path: Tuple[str, ...]
    count: int
    total_us: float
    self_us: float
    median_us: float
    mad_us: float
    counters: Dict[str, int]
    mem_peak_kb: Optional[float] = None

    @property
    def key(self) -> str:
        return PATH_SEP.join(self.path)

    @property
    def name(self) -> str:
        """The leaf span name of this path."""
        return self.path[-1] if self.path else ""


@dataclass
class Profile:
    """A deterministic hierarchical profile aggregated from spans."""

    paths: Dict[Tuple[str, ...], PathStats] = field(default_factory=dict)
    # The spliced-out plumbing spans, by name (keyed by the one-name
    # path): kept for the trace summary, outside paths and artifacts.
    plumbing: Dict[Tuple[str, ...], PathStats] = field(default_factory=dict)
    span_count: int = 0
    orphan_count: int = 0
    spliced_count: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    def stats(self, key: str) -> Optional[PathStats]:
        """Look up one path by its rendered ``a;b;c`` key."""
        return self.paths.get(tuple(key.split(PATH_SEP)) if key else ())

    def sorted_paths(self) -> List[PathStats]:
        """Paths in depth-first lexicographic order (deterministic)."""
        return [self.paths[path] for path in sorted(self.paths)]

    def work_counts(self) -> Dict[str, Dict[str, int]]:
        """The determinism-contract object: path → summed self counters.

        Call counts and timings are deliberately excluded — chunking
        (and therefore span cardinality) legitimately varies with
        ``--jobs``, but the counter *sums* may not.  Same seed and
        inputs must yield a bit-identical dict at every jobs value.
        """
        return {
            stats.key: dict(sorted(stats.counters.items()))
            for stats in self.sorted_paths()
            if stats.counters
        }


def _path_stats(path: Tuple[str, ...], entry: Mapping[str, Any]) -> PathStats:
    durations = sorted(entry["durations"])
    median = statistics.median(durations)
    mad = statistics.median(abs(d - median) for d in durations)
    return PathStats(
        path=path,
        count=entry["count"],
        total_us=round(entry["total_us"], 3),
        self_us=round(entry["self_us"], 3),
        median_us=round(median, 3),
        mad_us=round(mad, 3),
        counters=dict(sorted(entry["counters"].items())),
        mem_peak_kb=entry["mem_peak_kb"],
    )


def build_profile(
    records: Iterable[Any], *, meta: Optional[Mapping[str, Any]] = None
) -> Profile:
    """Aggregate finished spans into a :class:`Profile`.

    Orphan spans (recorded parent missing from the input — a truncated
    trace from a killed run) root their own subtree.  Plumbing spans
    (:data:`PLUMBING_SPANS`) are spliced out of descendants' paths;
    their own stats go to :attr:`Profile.plumbing` by name.  The
    aggregation is a pure commutative fold, so any permutation of
    ``records`` yields an identical profile.
    """
    spans = [
        r if isinstance(r, SpanRecord) else SpanRecord.from_dict(r) for r in records
    ]
    by_id: Dict[int, SpanRecord] = {
        s.span_id: s for s in spans if s.span_id is not None
    }

    # Direct-children wall time per parent id, for self-time.
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.dur_us
            )

    orphans = 0
    # Memoised name-path of each span, plumbing spliced out.  Keyed by
    # the record itself, not its id: a corrupt trace (two concatenated
    # files) can repeat an id, and each span's path must end in its
    # own name.
    memo: Dict[int, Tuple[str, ...]] = {}

    def path_of(span: SpanRecord) -> Tuple[str, ...]:
        nonlocal orphans
        # Walk ancestors iteratively (deep traces would blow the
        # recursion limit) with a visited guard against corrupt cycles.
        chain: List[SpanRecord] = []
        seen: set = set()
        current: Optional[SpanRecord] = span
        prefix: Tuple[str, ...] = ()
        while current is not None:
            if id(current) in memo:
                prefix = memo[id(current)]  # ancestor already resolved
                break
            if id(current) in seen:
                break  # cycle in a corrupt trace: treat as root
            seen.add(id(current))
            chain.append(current)
            parent_id = current.parent_id
            if parent_id is None:
                current = None
            elif parent_id in by_id:
                current = by_id[parent_id]
            else:
                orphans += 1
                current = None
        # `chain` runs child→ancestor; fold back down from the top.
        for node in reversed(chain):
            if node.name not in PLUMBING_SPANS:
                prefix = prefix + (node.name,)
            memo[id(node)] = prefix
        return prefix

    accumulator: Dict[Tuple[str, ...], Dict[str, Any]] = {}
    plumbing: Dict[Tuple[str, ...], Dict[str, Any]] = {}
    for span in spans:
        path = path_of(span)
        if span.name in PLUMBING_SPANS:
            bucket, path = plumbing, (span.name,)
        else:
            bucket = accumulator
        entry = bucket.setdefault(
            path,
            {
                "count": 0,
                "total_us": 0.0,
                "self_us": 0.0,
                "durations": [],
                "counters": {},
                "mem_peak_kb": None,
            },
        )
        entry["count"] += 1
        entry["total_us"] += span.dur_us
        child_us = child_time.get(span.span_id, 0.0) if span.span_id is not None else 0.0
        entry["self_us"] += max(0.0, span.dur_us - child_us)
        entry["durations"].append(span.dur_us)
        for name, value in span.counters.items():
            entry["counters"][name] = entry["counters"].get(name, 0) + value
        peak = span.attributes.get("mem_peak_kb")
        if isinstance(peak, (int, float)) and not isinstance(peak, bool):
            entry["mem_peak_kb"] = max(entry["mem_peak_kb"] or 0.0, float(peak))

    spliced = sum(entry["count"] for entry in plumbing.values())
    return Profile(
        paths={path: _path_stats(path, e) for path, e in accumulator.items()},
        plumbing={path: _path_stats(path, e) for path, e in plumbing.items()},
        span_count=len(spans) - spliced,
        orphan_count=orphans,
        spliced_count=spliced,
        meta=dict(meta or {}),
    )


# ----------------------------------------------------------------------
# Artifact I/O
# ----------------------------------------------------------------------


def profile_to_dict(profile: Profile) -> Dict[str, Any]:
    """Serialise a profile as a stable, diff-friendly artifact dict."""
    return {
        "kind": PROFILE_KIND,
        "schema": PROFILE_SCHEMA,
        "meta": dict(profile.meta),
        "spans": profile.span_count,
        "orphans": profile.orphan_count,
        "spliced": profile.spliced_count,
        "paths": {
            stats.key: {
                "count": stats.count,
                "total_us": stats.total_us,
                "self_us": stats.self_us,
                "median_us": stats.median_us,
                "mad_us": stats.mad_us,
                "counters": stats.counters,
                "mem_peak_kb": stats.mem_peak_kb,
            }
            for stats in profile.sorted_paths()
        },
    }


def profile_from_dict(payload: Mapping[str, Any]) -> Profile:
    """Rebuild a :class:`Profile` from its artifact dict."""
    if payload.get("kind") != PROFILE_KIND:
        raise ProfileError(f"not a {PROFILE_KIND} artifact")
    if payload.get("schema") != PROFILE_SCHEMA:
        raise ProfileError(
            f"profile has schema {payload.get('schema')!r}, "
            f"this build reads schema {PROFILE_SCHEMA}"
        )
    paths: Dict[Tuple[str, ...], PathStats] = {}
    for key, entry in payload.get("paths", {}).items():
        path = tuple(key.split(PATH_SEP)) if key else ()
        paths[path] = PathStats(
            path=path,
            count=int(entry["count"]),
            total_us=float(entry["total_us"]),
            self_us=float(entry["self_us"]),
            median_us=float(entry.get("median_us", 0.0)),
            mad_us=float(entry.get("mad_us", 0.0)),
            counters={k: int(v) for k, v in entry.get("counters", {}).items()},
            mem_peak_kb=entry.get("mem_peak_kb"),
        )
    return Profile(
        paths=paths,
        span_count=int(payload.get("spans", 0)),
        orphan_count=int(payload.get("orphans", 0)),
        spliced_count=int(payload.get("spliced", 0)),
        meta=dict(payload.get("meta", {})),
    )


def write_profile(path: str, profile: Profile) -> None:
    with open(path, "w") as handle:
        json.dump(profile_to_dict(profile), handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_profile(path: str) -> Profile:
    """Read a profile artifact *or* a trace file (auto-detected).

    A trace (JSONL or Chrome trace-event JSON) is aggregated on the
    fly, so every command that takes a profile also takes a raw trace.
    """
    from .summary import load_trace

    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        raise ProfileError(f"cannot read {path!r}: {error}")
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and document.get("kind") == PROFILE_KIND:
        return profile_from_dict(document)
    try:
        records = load_trace(path)
    except (OSError, ValueError) as error:
        raise ProfileError(f"{path!r} is neither a profile nor a trace: {error}")
    return build_profile(records, meta={"source_trace": path})


# ----------------------------------------------------------------------
# Exporters and rendering
# ----------------------------------------------------------------------


def to_folded(profile: Profile, metric: str = "self_us") -> str:
    """Folded-stack lines (``a;b;c value``) for flamegraph.pl et al.

    ``metric`` is ``self_us`` (default), ``count``, or any counter
    name; paths without the counter are omitted.
    """
    lines = []
    for stats in profile.sorted_paths():
        if metric == "self_us":
            value = int(round(stats.self_us))
        elif metric == "count":
            value = stats.count
        else:
            if metric not in stats.counters:
                continue
            value = stats.counters[metric]
        lines.append(f"{stats.key} {value}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(profile: Profile, name: str = "repro profile") -> Dict[str, Any]:
    """A speedscope-loadable document (https://www.speedscope.app).

    Each profile path becomes one sampled stack weighted by its self
    time, so the sum over samples reproduces total wall time exactly.
    """
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    samples: List[List[int]] = []
    weights: List[float] = []
    for stats in profile.sorted_paths():
        stack = []
        for frame_name in stats.path:
            if frame_name not in frame_index:
                frame_index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            stack.append(frame_index[frame_name])
        samples.append(stack)
        weights.append(stats.self_us)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "microseconds",
                "startValue": 0,
                "endValue": round(sum(weights), 3),
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro profile",
    }


def _fmt_us(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.3f}s"
    if value >= 1e3:
        return f"{value / 1e3:.1f}ms"
    return f"{value:.0f}µs"


def render_profile(profile: Profile, *, sort: str = "self", limit: int = 0) -> str:
    """The ``repro profile show`` table: one row per path."""
    from ..fmt import render_table

    keys = {"self": "self_us", "total": "total_us", "count": "count"}
    if sort not in keys:
        raise ValueError(f"sort must be one of {sorted(keys)}, got {sort!r}")
    stats_list = sorted(
        profile.paths.values(), key=lambda s: (-getattr(s, keys[sort]), s.path)
    )
    if limit:
        stats_list = stats_list[:limit]
    has_memory = any(s.mem_peak_kb is not None for s in profile.paths.values())
    rows = []
    for stats in stats_list:
        counters = " ".join(f"{k}={v}" for k, v in stats.counters.items())
        row = [
            stats.key,
            stats.count,
            _fmt_us(stats.total_us),
            _fmt_us(stats.self_us),
            _fmt_us(stats.median_us),
        ]
        if has_memory:
            row.append(
                "-" if stats.mem_peak_kb is None else f"{stats.mem_peak_kb:.0f}KB"
            )
        row.append(counters or "-")
        rows.append(row)
    headers = ["path", "calls", "total", "self", "median/call"]
    if has_memory:
        headers.append("peak mem")
    headers.append("work counters")
    header = (
        f"{profile.span_count} spans over {len(profile.paths)} paths"
        + (f", {profile.orphan_count} orphans" if profile.orphan_count else "")
        + (f", {profile.spliced_count} plumbing spans spliced" if profile.spliced_count else "")
    )
    if not rows:
        return f"{header}\n\n(empty profile)"
    return f"{header}\n\n{render_table(headers, rows)}"


# ----------------------------------------------------------------------
# Findings and the two change rules (shared with the ledger's compare)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One detected change: where it is, what kind, and how it reads."""

    where: str  # a ledger workload or a profile span path
    kind: str  # "work" | "time" | "memory" | "missing" | "added" | "removed"
    detail: str
    regression: bool  # False for improvements / informational findings

    def render(self) -> str:
        tag = "REGRESSION" if self.regression else "note"
        return f"[{tag}] {self.where}: {self.detail}"


def significant(
    base: float,
    new: float,
    base_mad: float,
    new_mad: float,
    *,
    threshold: float,
    floor: float,
    calls: int = 1,
) -> bool:
    """The robust two-condition change test: did ``new`` grow past ``base``?

    The delta must clear both the relative ``threshold`` (and ``floor``)
    and ``3 * calls * (MAD_base + MAD_new)`` plus ``floor``, so MAD-sized
    jitter on a quiet measurement never fires.  ``calls`` scales per-call
    MADs when the measurement is a sum over that many calls (a path's
    self time), where aggregate jitter accumulates.
    """
    delta = new - base
    if delta <= max(floor, threshold * base):
        return False
    return delta > _MAD_SIGMA * max(calls, 1) * (base_mad + new_mad) + floor


def counter_drift(base: Mapping[str, int], new: Mapping[str, int]) -> str:
    """The exact work rule: ``name: old -> new`` for every counter that
    differs, appears or vanishes (``absent`` on the missing side),
    joined by ``, `` in name order; empty when the counters agree."""
    return ", ".join(
        f"{name}: {base.get(name, 'absent')} -> {new.get(name, 'absent')}"
        for name in sorted(set(base) | set(new))
        if base.get(name) != new.get(name)
    )


# ----------------------------------------------------------------------
# Diffing two profiles
# ----------------------------------------------------------------------


@dataclass
class ProfileDiff:
    """Everything ``repro profile diff`` prints and gates on."""

    base_label: str
    new_label: str
    findings: List[Finding] = field(default_factory=list)
    rows: List[List[str]] = field(default_factory=list)

    def regressions(self, kinds: Optional[Sequence[str]] = None) -> List[Finding]:
        return [
            f
            for f in self.findings
            if f.regression and (kinds is None or f.kind in kinds)
        ]

    def work_drift(self) -> bool:
        """Any exact work-count change (including added/removed work paths)."""
        return bool(self.regressions(kinds=("work", "added", "removed")))

    def render(self) -> str:
        from ..fmt import render_table

        lines = [f"base: {self.base_label}", f"new:  {self.new_label}", ""]
        if self.rows:
            lines.append(
                render_table(
                    ["path", "base self", "new self", "Δ self", "verdict"], self.rows
                )
            )
        if self.findings:
            lines.append("")
            lines.extend(f.render() for f in self.findings)
        else:
            lines.append("no significant differences between the profiles")
        return "\n".join(lines)


def diff_profiles(
    base: Profile,
    new: Profile,
    *,
    time_threshold: float = 0.25,
    base_label: str = "<base>",
    new_label: str = "<new>",
) -> ProfileDiff:
    """Align two profiles by span path and report per-path deltas.

    Work counters use the exact rule (:func:`counter_drift`; any drift
    on a shared path is a finding); self time uses :func:`significant`,
    scaled by the path's call count, so jitter on a quiet subtree never
    fires.  Paths appearing or
    disappearing are regressions only when they carry work counters —
    purely-timed paths come and go with optional instrumentation.
    """
    diff = ProfileDiff(base_label=base_label, new_label=new_label)
    all_paths = sorted(set(base.paths) | set(new.paths))
    for path in all_paths:
        stats_base = base.paths.get(path)
        stats_new = new.paths.get(path)
        key = PATH_SEP.join(path)
        if stats_base is None:
            assert stats_new is not None
            has_work = bool(stats_new.counters)
            counters = " ".join(f"{k}={v}" for k, v in stats_new.counters.items())
            diff.findings.append(
                Finding(
                    key,
                    "added",
                    "path only in new profile"
                    + (f" (work: {counters})" if counters else ""),
                    has_work,
                )
            )
            diff.rows.append([key, "-", _fmt_us(stats_new.self_us), "-", "added"])
            continue
        if stats_new is None:
            has_work = bool(stats_base.counters)
            counters = " ".join(f"{k}={v}" for k, v in stats_base.counters.items())
            diff.findings.append(
                Finding(
                    key,
                    "removed",
                    "path only in base profile"
                    + (f" (work: {counters})" if counters else ""),
                    has_work,
                )
            )
            diff.rows.append([key, _fmt_us(stats_base.self_us), "-", "-", "removed"])
            continue

        verdicts: List[str] = []
        drift = counter_drift(stats_base.counters, stats_new.counters)
        if drift:
            diff.findings.append(
                Finding(key, "work", f"work-count drift ({drift})", True)
            )
            verdicts.append("work drift")

        calls = max(stats_base.count, stats_new.count)
        if significant(
            stats_base.self_us, stats_new.self_us,
            stats_base.mad_us, stats_new.mad_us,
            threshold=time_threshold, floor=_TIME_FLOOR_US, calls=calls,
        ):
            ratio = stats_new.self_us / max(stats_base.self_us, 1e-9)
            diff.findings.append(
                Finding(
                    key,
                    "time",
                    f"self {_fmt_us(stats_base.self_us)} -> "
                    f"{_fmt_us(stats_new.self_us)} ({ratio:.2f}x)",
                    True,
                )
            )
            verdicts.append(f"time {ratio:.2f}x")
        elif significant(
            stats_new.self_us, stats_base.self_us,
            stats_new.mad_us, stats_base.mad_us,
            threshold=time_threshold, floor=_TIME_FLOOR_US, calls=calls,
        ):
            ratio = stats_base.self_us / max(stats_new.self_us, 1e-9)
            diff.findings.append(
                Finding(
                    key,
                    "time",
                    f"improved: self {_fmt_us(stats_base.self_us)} -> "
                    f"{_fmt_us(stats_new.self_us)} ({ratio:.2f}x faster)",
                    False,
                )
            )
            verdicts.append("faster")

        if verdicts:
            delta = stats_new.self_us - stats_base.self_us
            sign = "+" if delta >= 0 else "-"
            diff.rows.append(
                [
                    key,
                    _fmt_us(stats_base.self_us),
                    _fmt_us(stats_new.self_us),
                    f"{sign}{_fmt_us(abs(delta))}",
                    "; ".join(verdicts),
                ]
            )
    return diff
