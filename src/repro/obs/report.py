"""Static HTML run reports (``repro runs report``).

Renders one recorded run — its manifest and its one stream of spans
and events — into a single self-contained HTML document: no
JavaScript, no external assets, so the file can be attached to a CI
artifact, mailed, or opened from a ``file://`` URL years later and
still work.  The span tree uses native ``<details>``/``<summary>``
nesting (collapsible without scripts) with inline flame bars
positioned on the run's time axis; per-worker timelines are rebuilt
from the ``parallel.task`` container spans the pool merge emits; the
work profile is :func:`repro.obs.profile.build_profile` of the run's
``trace.jsonl`` (exact per-path calls, total, self and median times);
the run's cache counts come from the manifest and its heartbeat events
from the stream.

Everything here is pure formatting over already-recorded data — a
report renders identically for a live, finished, crashed, or killed
run (killed runs simply show the partial stream that survived).
"""

from __future__ import annotations

import html
import json
import time
from typing import Any, Dict, List, Optional, Sequence

from .summary import SpanRecord
from . import runs as _runs

__all__ = ["render_run_report", "render_report_for_run"]

_MAX_EVENT_ROWS = 500
_MAX_TREE_SPANS = 4000

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1c2733; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
     border-bottom: 1px solid #d7dee6; padding-bottom: .3rem; }
table { border-collapse: collapse; font-size: .85rem; margin: .5rem 0; }
th, td { border: 1px solid #d7dee6; padding: .25rem .6rem; text-align: left; }
th { background: #f2f5f8; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
code, pre { font-family: ui-monospace, 'SF Mono', Menlo, monospace; }
pre.tb { background: #fff3f3; border: 1px solid #e4b4b4; padding: .8rem;
         overflow-x: auto; font-size: .8rem; }
.badge { display: inline-block; padding: .15rem .6rem; border-radius: 1rem;
         font-size: .8rem; font-weight: 600; color: #fff; }
.badge.ok { background: #2e8540; } .badge.failed { background: #c0392b; }
.badge.killed { background: #8e44ad; } .badge.running { background: #2471a3; }
details.span { margin-left: 1rem; }
details.span > summary { cursor: pointer; font-size: .82rem;
  font-family: ui-monospace, 'SF Mono', Menlo, monospace; white-space: nowrap; }
.lane { position: relative; height: 1.1rem; background: #f2f5f8;
        margin: .15rem 0; border-radius: 2px; }
.lane .bar { position: absolute; top: 10%; height: 80%; background: #5b8def;
             border-radius: 2px; min-width: 2px; }
.flame { display: inline-block; position: relative; width: 18rem;
         height: .7rem; background: #eef1f5; vertical-align: middle;
         margin-left: .5rem; border-radius: 2px; }
.flame .bar { position: absolute; top: 0; height: 100%; background: #e8804d;
              border-radius: 2px; min-width: 1px; }
.muted { color: #66707a; font-size: .85rem; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _fmt_us(duration_us: float) -> str:
    if duration_us >= 1e6:
        return f"{duration_us / 1e6:.2f}s"
    if duration_us >= 1e3:
        return f"{duration_us / 1e3:.1f}ms"
    return f"{duration_us:.0f}µs"


def _attrs_cell(attributes: Dict[str, Any]) -> str:
    return " ".join(f"{_esc(k)}={_esc(v)}" for k, v in attributes.items())


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]], numeric: Sequence[int] = ()) -> str:
    head = "".join(
        f"<th{' class=num' if i in numeric else ''}>{_esc(h)}</th>" for i, h in enumerate(headers)
    )
    body = []
    for row in rows:
        cells = "".join(
            f"<td{' class=num' if i in numeric else ''}>{cell if isinstance(cell, str) and cell.startswith('<') else _esc(cell)}</td>"
            for i, cell in enumerate(row)
        )
        body.append(f"<tr>{cells}</tr>")
    return f"<table><tr>{head}</tr>{''.join(body)}</table>"


# ----------------------------------------------------------------------
# Span tree (flame view)
# ----------------------------------------------------------------------


def _span_tree_html(spans: List[SpanRecord]) -> str:
    if not spans:
        return "<p class=muted>No spans recorded.</p>"
    truncated = ""
    if len(spans) > _MAX_TREE_SPANS:
        truncated = (
            f"<p class=muted>Showing the first {_MAX_TREE_SPANS} of "
            f"{len(spans)} spans.</p>"
        )
        spans = spans[:_MAX_TREE_SPANS]
    known = {s.span_id for s in spans if s.span_id is not None}
    children: Dict[Optional[int], List[SpanRecord]] = {}
    roots: List[SpanRecord] = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in known:
            children.setdefault(span.parent_id, []).append(span)
        else:
            # Orphans (parent never flushed before a kill) render as roots.
            roots.append(span)
    origin = min(s.start_us for s in spans)
    extent = max(s.start_us + s.dur_us for s in spans) - origin or 1.0

    def render(span: SpanRecord) -> str:
        left = 100.0 * (span.start_us - origin) / extent
        width = max(0.3, 100.0 * span.dur_us / extent)
        bar = (
            f"<span class=flame><span class=bar "
            f"style='left:{left:.2f}%;width:{width:.2f}%'></span></span>"
        )
        counters = _attrs_cell(dict(span.counters)) if span.counters else ""
        label = (
            f"{_esc(span.name)} — {_fmt_us(span.dur_us)}"
            + (f" <span class=muted>{counters}</span>" if counters else "")
            + bar
        )
        kids = children.get(span.span_id, [])
        if not kids:
            return f"<details class=span><summary>{label}</summary></details>"
        inner = "".join(render(kid) for kid in sorted(kids, key=lambda s: s.start_us))
        return f"<details class=span open><summary>{label}</summary>{inner}</details>"

    return truncated + "".join(render(root) for root in sorted(roots, key=lambda s: s.start_us))


# ----------------------------------------------------------------------
# Per-worker timelines
# ----------------------------------------------------------------------


def _worker_timelines_html(spans: List[SpanRecord]) -> str:
    tasks = [s for s in spans if s.name == "parallel.task"]
    if not tasks:
        return "<p class=muted>Serial run: no worker tasks recorded.</p>"
    origin = min(s.start_us for s in tasks)
    extent = max(s.start_us + s.dur_us for s in tasks) - origin or 1.0
    by_pid: Dict[Any, List[SpanRecord]] = {}
    for span in tasks:
        by_pid.setdefault(span.attributes.get("pid", "?"), []).append(span)
    parts = []
    for pid in sorted(by_pid, key=str):
        lanes = []
        for span in sorted(by_pid[pid], key=lambda s: s.start_us):
            left = 100.0 * (span.start_us - origin) / extent
            width = max(0.3, 100.0 * span.dur_us / extent)
            title = f"task {span.attributes.get('task', '?')}: {_fmt_us(span.dur_us)}"
            lanes.append(
                f"<span class=bar style='left:{left:.2f}%;width:{width:.2f}%' "
                f"title='{_esc(title)}'></span>"
            )
        parts.append(
            f"<div><code>worker {_esc(pid)}</code> "
            f"<span class=muted>({len(by_pid[pid])} tasks)</span>"
            f"<div class=lane>{''.join(lanes)}</div></div>"
        )
    return "".join(parts)


# ----------------------------------------------------------------------
# Work profile and events
# ----------------------------------------------------------------------


def _profile_html(spans: List[SpanRecord], limit: int = 25) -> str:
    """Top self-time profile paths aggregated from the run-local trace."""
    from .profile import build_profile

    if not spans:
        return "<p class=muted>No spans recorded; nothing to profile.</p>"
    profile = build_profile(spans)
    stats = sorted(profile.paths.values(), key=lambda s: (-s.self_us, s.key))
    note = ""
    if limit and len(stats) > limit:
        note = (
            f"<p class=muted>Showing the top {limit} of {len(stats)} paths "
            f"by self time.</p>"
        )
        stats = stats[:limit]
    rows = []
    for entry in stats:
        counters = (
            " ".join(f"{k}={v:,}" for k, v in sorted(entry.counters.items())) or "-"
        )
        rows.append(
            (
                entry.key,
                f"{entry.count:,}",
                _fmt_us(entry.total_us),
                _fmt_us(entry.self_us),
                _fmt_us(entry.median_us),
                counters,
            )
        )
    summary = (
        f"<p class=muted>{profile.span_count} spans over {len(profile.paths)} "
        f"paths ({profile.spliced_count} plumbing spans spliced, "
        f"{profile.orphan_count} orphans). Diff against another run with "
        f"<code>repro runs diff</code>.</p>"
    )
    return summary + _table(
        ["path", "calls", "total", "self", "median/call", "work counters"],
        rows,
        numeric=(1, 2, 3, 4),
    ) + note


def _events_html(events: List[Dict[str, Any]]) -> str:
    if not events:
        return "<p class=muted>No events recorded.</p>"
    shown = events[:_MAX_EVENT_ROWS]
    rows = []
    for event in shown:
        stamp = event.get("wall_unix")
        when = (
            time.strftime("%H:%M:%S", time.gmtime(stamp)) if isinstance(stamp, (int, float)) else "-"
        )
        rows.append((when, event.get("name", "?"), _attrs_cell(dict(event.get("attrs", {})))))
    note = (
        f"<p class=muted>Showing the first {_MAX_EVENT_ROWS} of {len(events)} events.</p>"
        if len(events) > _MAX_EVENT_ROWS
        else ""
    )
    return _table(["time (UTC)", "event", "attributes"], rows) + note


# ----------------------------------------------------------------------
# The document
# ----------------------------------------------------------------------


def render_run_report(
    manifest: Dict[str, Any],
    spans: List[SpanRecord],
    events: List[Dict[str, Any]],
) -> str:
    """One self-contained HTML document for a recorded run."""
    status, stale = _runs.effective_status(manifest)
    badge_class = status if status in ("ok", "failed", "killed", "running") else "failed"
    started = manifest.get("started_unix")
    started_text = (
        time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime(started))
        if isinstance(started, (int, float))
        else "-"
    )
    duration = manifest.get("duration_s")
    facts = [
        ("command", manifest.get("command", "?")),
        ("argv", " ".join(manifest.get("argv", []))),
        ("started", started_text),
        ("duration", f"{duration}s" if duration is not None else "still running"),
        ("seed", manifest.get("seed")),
        ("jobs", manifest.get("jobs")),
        ("pid", manifest.get("pid")),
        ("exit code", manifest.get("exit_code")),
    ]
    if manifest.get("signal"):
        facts.append(("signal", manifest["signal"]))
    env = manifest.get("env") or {}
    env_rows = [(key, value) for key, value in sorted(env.items())]
    cache = manifest.get("cache") or {}
    cache_html = (
        _table(["cache counter", "value"], sorted(cache.items()), numeric=(1,))
        if cache
        else "<p class=muted>No cache activity recorded.</p>"
    )
    error = manifest.get("error")
    error_html = f"<h2>Error</h2><pre class=tb>{_esc(error)}</pre>" if error else ""
    stale_note = (
        "<p class=muted>Status inferred post mortem: the recorded PID is gone "
        "but the run was never finalized (SIGKILL or host crash).</p>"
        if stale
        else ""
    )
    return f"""<!DOCTYPE html>
<html lang=en>
<head>
<meta charset=utf-8>
<title>repro run {_esc(manifest.get('run_id', '?'))}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>repro run <code>{_esc(manifest.get('run_id', '?'))}</code>
 <span class="badge {badge_class}">{_esc(status)}</span></h1>
{stale_note}
{_table(["", ""], facts)}
{error_html}
<h2>Span tree</h2>
{_span_tree_html(spans)}
<h2>Worker timelines</h2>
{_worker_timelines_html(spans)}
<h2>Work profile</h2>
{_profile_html(spans)}
<h2>Cache</h2>
{cache_html}
<h2>Events</h2>
{_events_html(events)}
<h2>Environment</h2>
{_table(["", ""], env_rows)}
<p class=muted>Generated by <code>repro runs report</code> from
<code>{_esc(json.dumps(manifest.get('artifacts', {})))}</code>.</p>
</body>
</html>
"""


def render_report_for_run(root: str, run_id: str) -> str:
    """Load a run's manifest and stream from disk and render the report."""
    manifest = _runs.load_manifest(root, run_id)
    events, spans = _runs.read_stream(root, run_id)
    return render_run_report(manifest, spans, events)
