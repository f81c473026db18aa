"""The persistent run registry — a flight recorder for CLI invocations.

The searches this repo reproduces can run for hours (the paper's whole
point is that they can run astronomically longer), yet until this
module every trace, heartbeat and metrics snapshot died with the
process.  A :class:`RunRecorder` gives each CLI invocation a durable
record under ``~/.local/state/repro/runs/<run_id>/``:

``manifest.json``
    Atomically-rewritten summary: command, argv, seed, ``--jobs``, the
    environment fingerprint, start/end timestamps, status
    (``running`` / ``ok`` / ``failed`` / ``killed``), exit code, linked
    artifacts, and — at finalize — the run's own cache counts (the
    ``cache`` registry's change since open).  On a crash the traceback
    is recorded.  Where the time went is not copied here: it is in the
    stream, and the readers fold it with
    :func:`repro.obs.profile.build_profile`.

``trace.jsonl``
    The run's one stream, line-flushed so a *second process* can follow
    it while the run is live (``repro runs tail``).  The recorder is a
    span exporter of the command's tracer, so the stream holds, in the
    standard JSONL shape: every span; every tracer event (progress
    heartbeats, worker event shards the parallel backend re-emits in
    task order); and the recorder's own events (``run-start``,
    ``run-finish``, ``km-checkpoint``/``km-resume``,
    ``run-killed-detected``).  Every event carries ``wall_unix``.
    ``repro runs show|tail|report|diff`` all read it through
    :func:`repro.obs.summary.parse_jsonl`; ``show``, ``report`` and
    ``diff`` fold its spans into the run's work profile.

Crash tolerance is layered: a normal exit finalizes through the CLI, a
``sys.exit`` deep in a handler finalizes through ``atexit``, SIGTERM /
SIGINT finalize through a signal handler that marks the run
``killed`` (spans the tracer closes on the way out still land in the
stream), and SIGKILL — which nothing can catch — is detected *post
mortem*: any reader that finds a ``running`` manifest whose PID no
longer exists reports (and can persist) the run as ``killed``.  Every
line already flushed to ``trace.jsonl`` survives, so a killed run
still has its partial stream; the post-mortem drops a line the kill
cut short before it appends ``run-killed-detected``.

Only the process whose PID the manifest records may finalize it: a
``--jobs`` worker forked mid-run inherits the recorder and its signal
handlers, and a Ctrl-C to the process group reaches the workers too.

Recording is opt-out (``REPRO_NO_RUNS=1``; the test suite sets it) and
redirectable (``REPRO_RUNS_DIR``).  Opening and finalizing a manifest
is a few JSON writes with no fsync — the ``runs.manifest_overhead``
ledger workload pins the cost.  Manifest schema 2 is this layout;
schema 1 kept a second stream, ``events.jsonl``, which nothing reads.
Manifests written before the registry kept counters only also hold a
``metrics`` snapshot; ``runs show --json`` prints it as stored, and
the other readers pass it over.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import signal
import threading
import time
import uuid
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .exporters import JsonlExporter, _clean
from .metrics import get_metrics
from .summary import SpanRecord, parse_jsonl

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA",
    "RunsError",
    "RunsSchemaError",
    "RunRecorder",
    "current_run",
    "set_current_run",
    "runs_root",
    "resolve_root",
    "default_runs_root",
    "run_directory",
    "list_runs",
    "load_manifest",
    "resolve_run_id",
    "effective_status",
    "mark_stale_killed",
    "pid_alive",
    "read_stream",
    "follow_events",
    "gc_runs",
    "run_size_bytes",
]

MANIFEST_KIND = "repro-run"
MANIFEST_SCHEMA = 2

MANIFEST_NAME = "manifest.json"
TRACE_NAME = "trace.jsonl"

ENV_RUNS_DIR = "REPRO_RUNS_DIR"
ENV_NO_RUNS = "REPRO_NO_RUNS"

TERMINAL_STATUSES = frozenset({"ok", "failed", "killed"})


class RunsError(ValueError):
    """Malformed registry state or an unresolvable run id."""


class RunsSchemaError(RunsError):
    """A manifest written by a newer build than this reader.

    Raised (not silently skipped) by :func:`load_manifest` so direct
    inspection of one run fails loudly; :func:`list_runs` downgrades it
    to a warning — a registry shared between two repro versions must
    stay listable from the older one.
    """


# ----------------------------------------------------------------------
# Roots and registry layout
# ----------------------------------------------------------------------


def default_runs_root() -> str:
    """``$XDG_STATE_HOME/repro/runs`` (``~/.local/state`` fallback)."""
    base = os.environ.get("XDG_STATE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".local", "state")
    return os.path.join(base, "repro", "runs")


def runs_root() -> Optional[str]:
    """The root new runs record into, or ``None`` when recording is off."""
    if os.environ.get(ENV_NO_RUNS):
        return None
    return os.environ.get(ENV_RUNS_DIR) or default_runs_root()


def resolve_root(explicit: Optional[str] = None) -> str:
    """The root the inspection commands read.

    Unlike :func:`runs_root` this ignores ``REPRO_NO_RUNS`` — disabling
    *recording* must not hide already-recorded history.
    """
    return explicit or os.environ.get(ENV_RUNS_DIR) or default_runs_root()


def run_directory(root: str, run_id: str) -> str:
    return os.path.join(root, run_id)


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    """Write-then-rename so readers never observe a half manifest."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def pid_alive(pid: Optional[int]) -> bool:
    """Is a process with this PID still running (best effort)?"""
    if not pid or pid < 1:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------

_FINGERPRINT_CACHE: Optional[Dict[str, Any]] = None


def _environment_fingerprint(jobs: Optional[int]) -> Dict[str, Any]:
    """The ledger's fingerprint, memoised per process.

    ``environment_fingerprint`` shells out to git; one subprocess per
    manifest would dominate the open cost the overhead workload pins.
    """
    global _FINGERPRINT_CACHE
    if _FINGERPRINT_CACHE is None:
        from .ledger import environment_fingerprint

        _FINGERPRINT_CACHE = environment_fingerprint(jobs=1)
    fingerprint = dict(_FINGERPRINT_CACHE)
    fingerprint["jobs"] = jobs
    return fingerprint


def _new_run_id() -> str:
    """Sortable-by-start-time, collision-proof across processes."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class RunRecorder(JsonlExporter):
    """One live run: owns the manifest, the run's stream, the finalizer.

    As a span exporter it writes the command's spans and tracer events
    to ``trace.jsonl``; :meth:`event` adds its own events to the same
    stream, and every event is stamped with ``wall_unix``.
    """

    def __init__(self, directory: str, manifest: Dict[str, Any]):
        self.directory = directory
        self.manifest = manifest
        self.run_id: str = manifest["run_id"]
        self._finalized = False
        self._previous_handlers: Dict[int, Any] = {}
        self._cache_at_open = get_metrics("cache").snapshot()
        super().__init__(os.path.join(directory, TRACE_NAME))

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str,
        *,
        command: str,
        argv: Optional[List[str]] = None,
        seed: Optional[int] = None,
        jobs: Optional[int] = None,
        install_handlers: bool = True,
    ) -> "RunRecorder":
        """Create the run directory, its stream and the ``running`` manifest."""
        run_id = _new_run_id()
        directory = run_directory(root, run_id)
        os.makedirs(directory, exist_ok=True)
        manifest: Dict[str, Any] = {
            "kind": MANIFEST_KIND,
            "schema": MANIFEST_SCHEMA,
            "run_id": run_id,
            "command": command,
            "argv": list(argv or []),
            "seed": seed,
            "jobs": jobs,
            "pid": os.getpid(),
            "cwd": os.getcwd(),
            "env": _environment_fingerprint(jobs),
            "started_unix": round(time.time(), 3),
            "ended_unix": None,
            "duration_s": None,
            "status": "running",
            "exit_code": None,
            "signal": None,
            "error": None,
            "artifacts": {"trace": TRACE_NAME},
            "checkpoints": {},
            "cache": None,
        }
        recorder = cls(directory, manifest)
        recorder._write_manifest()
        recorder.event("run-start", command=command, pid=os.getpid())
        atexit.register(recorder._atexit_finalize)
        if install_handlers:
            recorder._install_signal_handlers()
        return recorder

    def _write_manifest(self) -> None:
        _atomic_write_json(os.path.join(self.directory, MANIFEST_NAME), self.manifest)

    def _write(self, record: Dict[str, Any]) -> None:
        if record["type"] == "event":
            record["wall_unix"] = round(time.time(), 3)
        if not self._handle.closed:
            # Flushed per line, so `repro runs tail` in a second process
            # and the post-mortem after a SIGKILL see every record.
            super()._write(record)
            return
        # Sealed by a signal while spans were open: the spans the tracer
        # closes on the way out still belong to the run.
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    def event(self, name: str, **attributes: Any) -> None:
        """Append one of the recorder's own events to the stream."""
        self._write({"type": "event", "name": name, "attrs": _clean(attributes)})

    def close(self) -> None:
        """The tracer is done with the stream; :meth:`finalize` ends it."""

    def link_artifact(self, kind: str, path: str) -> None:
        """Record an externally-written artifact (``--trace``, bench out)."""
        self.manifest["artifacts"][kind] = os.path.abspath(path)
        self._write_manifest()

    def note_checkpoint(self, analysis: str, key: str, **info: Any) -> None:
        """Register a resumable checkpoint written to the analysis cache.

        Unlike :meth:`link_artifact` the reference is a content address
        (store entry key), not a path — ``repro analyze --resume`` finds
        the entry through the replayed run's own store configuration.
        The manifest keeps the latest checkpoint per analysis, so a
        post-mortem of a SIGKILL'd run shows exactly where a resume
        would pick up.
        """
        entry = {"key": key, "wall_unix": round(time.time(), 3)}
        entry.update(info)
        self.manifest.setdefault("checkpoints", {})[analysis] = entry
        self._write_manifest()

    # -- finalization --------------------------------------------------

    def finalize(
        self,
        status: str,
        *,
        exit_code: Optional[int] = None,
        error: Optional[str] = None,
        signal_name: Optional[str] = None,
    ) -> None:
        """Seal the manifest (idempotent: the first finalize wins).

        A no-op outside the process the manifest records: a forked
        worker's copy of the recorder never seals the run.
        """
        if self._finalized or os.getpid() != self.manifest["pid"]:
            return
        self._finalized = True
        ended = time.time()
        self.manifest["ended_unix"] = round(ended, 3)
        self.manifest["duration_s"] = round(
            max(0.0, ended - self.manifest["started_unix"]), 3
        )
        self.manifest["status"] = status
        self.manifest["exit_code"] = exit_code
        self.manifest["signal"] = signal_name
        self.manifest["error"] = error
        before = self._cache_at_open
        self.manifest["cache"] = {
            name: value - before.get(name, 0)
            for name, value in get_metrics("cache").counters.items()
            if value != before.get(name, 0)
        }
        self.event("run-finish", status=status, exit_code=exit_code)
        super().close()
        self._write_manifest()
        self._restore_signal_handlers()
        atexit.unregister(self._atexit_finalize)
        if current_run() is self:
            set_current_run(None)

    def _atexit_finalize(self) -> None:
        # The process is exiting without the CLI having sealed the run:
        # an unhandled sys.exit or a hard crash path.  Record it as
        # failed so `repro runs list` never shows phantom live runs.
        self.finalize("failed", error="process exited before the run was finalized")

    # -- signals -------------------------------------------------------

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous_handlers[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                self._previous_handlers.pop(signum, None)

    def _restore_signal_handlers(self) -> None:
        for signum, previous in self._previous_handlers.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous_handlers.clear()

    def _on_signal(self, signum: int, frame: Any) -> None:
        name = signal.Signals(signum).name
        self.finalize("killed", exit_code=128 + signum, signal_name=name)
        raise SystemExit(128 + signum)


# ----------------------------------------------------------------------
# The per-process current run
# ----------------------------------------------------------------------

_CURRENT: Optional[RunRecorder] = None


def current_run() -> Optional[RunRecorder]:
    """The recorder for the CLI invocation in flight, if any."""
    return _CURRENT


def set_current_run(recorder: Optional[RunRecorder]) -> Optional[RunRecorder]:
    """Install ``recorder`` as the current run; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = recorder
    return previous


# ----------------------------------------------------------------------
# Reading the registry back
# ----------------------------------------------------------------------


def load_manifest(root: str, run_id: str) -> Dict[str, Any]:
    """One run's manifest (raises :class:`RunsError` when unreadable)."""
    path = os.path.join(run_directory(root, run_id), MANIFEST_NAME)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except OSError as error:
        raise RunsError(f"no manifest for run {run_id!r} under {root}: {error}")
    except json.JSONDecodeError as error:
        raise RunsError(f"manifest for run {run_id!r} is not valid JSON: {error}")
    if not isinstance(manifest, dict) or manifest.get("kind") != MANIFEST_KIND:
        raise RunsError(f"{path} is not a {MANIFEST_KIND} manifest")
    schema = manifest.get("schema", 1)
    if isinstance(schema, int) and schema > MANIFEST_SCHEMA:
        raise RunsSchemaError(
            f"run {run_id!r} has manifest schema {schema}; this build reads "
            f"schema <= {MANIFEST_SCHEMA} (recorded by a newer repro?)"
        )
    return manifest


def list_runs(root: str) -> List[Dict[str, Any]]:
    """Every readable manifest under ``root``, newest first.

    Unreadable or half-written entries are skipped, not fatal — the
    registry must stay listable while a run is mid-open or after a
    crash left debris.  Manifests from a *newer* schema are skipped
    with a warning on stderr rather than raising: disagreeing builds
    sharing one registry must both keep working.
    """
    import sys

    if not os.path.isdir(root):
        return []
    manifests = []
    for name in os.listdir(root):
        if name.endswith(".tmp") or ".gc-" in name:
            continue
        try:
            manifests.append(load_manifest(root, name))
        except RunsSchemaError as error:
            print(f"warning: skipping run: {error}", file=sys.stderr)
            continue
        except RunsError:
            continue
    manifests.sort(key=lambda m: (m.get("started_unix") or 0.0, m.get("run_id", "")), reverse=True)
    return manifests


def resolve_run_id(root: str, spec: str) -> str:
    """Resolve ``latest``, a full run id, or a unique id prefix."""
    manifests = list_runs(root)
    if not manifests:
        raise RunsError(f"no runs recorded under {root}")
    if spec == "latest":
        return manifests[0]["run_id"]
    ids = [m["run_id"] for m in manifests]
    if spec in ids:
        return spec
    matches = [run_id for run_id in ids if run_id.startswith(spec)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise RunsError(f"no run matches {spec!r} (try `repro runs list`)")
    raise RunsError(f"run id prefix {spec!r} is ambiguous: {', '.join(sorted(matches)[:4])} ...")


def effective_status(manifest: Dict[str, Any]) -> Tuple[str, bool]:
    """``(status, stale)`` — a ``running`` manifest whose PID is gone is
    reported as ``killed`` (SIGKILL leaves no other evidence)."""
    status = manifest.get("status", "unknown")
    if status == "running" and not pid_alive(manifest.get("pid")):
        return "killed", True
    return status, False


def mark_stale_killed(root: str, manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Persist the post-mortem verdict for a stale ``running`` manifest."""
    run_id = manifest["run_id"]
    manifest = dict(manifest)
    manifest["status"] = "killed"
    manifest["signal"] = "stale-pid"
    manifest["error"] = "process disappeared without finalizing (SIGKILL or host crash)"
    if manifest.get("ended_unix") is None:
        manifest["ended_unix"] = round(time.time(), 3)
        started = manifest.get("started_unix")
        if started is not None:
            manifest["duration_s"] = round(max(0.0, manifest["ended_unix"] - started), 3)
    directory = run_directory(root, run_id)
    _atomic_write_json(os.path.join(directory, MANIFEST_NAME), manifest)
    record = {
        "type": "event",
        "name": "run-killed-detected",
        "wall_unix": round(time.time(), 3),
        "attrs": {"detected_by_pid": os.getpid()},
    }
    try:
        with open(os.path.join(directory, TRACE_NAME), "rb+") as handle:
            _drop_cut_line(handle)
            handle.write((json.dumps(record) + "\n").encode())
    except OSError:
        pass
    return manifest


def _drop_cut_line(handle: Any) -> None:
    """Truncate a binary stream after its last newline, leaving it at the end.

    A SIGKILL mid-write leaves one line without its newline; appending
    after it would glue a record onto the cut line, so it goes first.
    """
    keep = handle.seek(0, os.SEEK_END)
    while keep > 0:
        start = max(0, keep - 4096)
        handle.seek(start)
        newline = handle.read(keep - start).rfind(b"\n")
        if newline >= 0:
            keep = start + newline + 1
            break
        keep = start
    handle.truncate(keep)
    handle.seek(keep)


# ----------------------------------------------------------------------
# The run's stream
# ----------------------------------------------------------------------


def read_stream(root: str, run_id: str) -> Tuple[List[Dict[str, Any]], List[SpanRecord]]:
    """``(events, spans)`` of a run, from one read of its ``trace.jsonl``.

    A missing stream reads as empty; a corrupt one (a line other than a
    cut tail that is not JSON) raises :class:`RunsError`.
    """
    path = os.path.join(run_directory(root, run_id), TRACE_NAME)
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError:
        return [], []
    records = _parse_stream(text, run_id, path)
    events = [record for record in records if record.get("type") == "event"]
    spans = [SpanRecord.from_dict(record) for record in records if record.get("type") == "span"]
    return events, spans


def _parse_stream(text: str, run_id: str, path: str) -> List[Dict[str, Any]]:
    try:
        return parse_jsonl(text)
    except ValueError as error:
        raise RunsError(f"run {run_id!r}: {path} is corrupt: {error}")


def follow_events(
    root: str,
    run_id: str,
    *,
    follow: bool = True,
    interval: float = 0.5,
    timeout: Optional[float] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield the stream's events as they appear; stop once the run is terminal.

    This is the ``repro runs tail`` engine: it re-reads the manifest
    between polls, detects a stale run (PID gone), persists the
    ``killed`` verdict, and stops.  Only complete lines are parsed — a
    partially-flushed tail line is left for the next poll — and a
    complete line that is not JSON raises :class:`RunsError`.
    """
    path = os.path.join(run_directory(root, run_id), TRACE_NAME)
    deadline = None if timeout is None else time.monotonic() + timeout
    offset = 0
    buffered = ""
    while True:
        try:
            with open(path) as handle:
                handle.seek(offset)
                chunk = handle.read()
                offset = handle.tell()
        except OSError:
            chunk = ""
        # Complete lines are parsed now (each newline-terminated, so none
        # counts as a cut tail); the remainder waits for the next poll.
        complete, _, buffered = (buffered + chunk).rpartition("\n")
        for record in _parse_stream(complete + "\n", run_id, path):
            if record.get("type") == "event":
                yield record
        manifest = load_manifest(root, run_id)
        status, stale = effective_status(manifest)
        if stale:
            mark_stale_killed(root, manifest)
            yield {
                "type": "event",
                "name": "run-killed-detected",
                "wall_unix": round(time.time(), 3),
                "attrs": {"pid": manifest.get("pid")},
            }
            return
        if status in TERMINAL_STATUSES or not follow:
            return
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(interval)


# ----------------------------------------------------------------------
# Retention (`repro runs gc`)
# ----------------------------------------------------------------------


def run_size_bytes(root: str, run_id: str) -> int:
    """Total on-disk size of one run directory."""
    total = 0
    directory = run_directory(root, run_id)
    for dirpath, _, filenames in os.walk(directory):
        for name in filenames:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                continue
    return total


def _delete_run(root: str, run_id: str) -> None:
    """Atomic removal: rename out of the registry first, then delete.

    A reader racing the delete either sees the run fully present or not
    at all — never a directory whose manifest has gone but whose event
    stream is still being unlinked (``list_runs`` also skips the
    ``.gc-`` rename target explicitly).
    """
    directory = run_directory(root, run_id)
    doomed = f"{directory}.gc-{os.getpid()}"
    try:
        os.replace(directory, doomed)
    except OSError:
        doomed = directory
    shutil.rmtree(doomed, ignore_errors=True)


def gc_runs(
    root: str,
    *,
    max_runs: Optional[int] = None,
    max_age_days: Optional[float] = None,
    max_bytes: Optional[int] = None,
    dry_run: bool = False,
    now: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Apply the retention policy; returns the manifests removed.

    Live ``running`` runs (PID still present) are never collected;
    stale ones are first marked ``killed`` so the decision is recorded
    even if the delete then races another collector.  Policies compose:
    a run is removed if *any* of them says so, newest runs always
    preferred for retention.
    """
    manifests = list_runs(root)
    keep: List[Dict[str, Any]] = []
    removed: List[Dict[str, Any]] = []
    for manifest in manifests:
        status, stale = effective_status(manifest)
        if status == "running" and not stale:
            keep.append(manifest)
            continue
        if stale and not dry_run:
            manifest = mark_stale_killed(root, manifest)
        keep.append(manifest)

    collectable = [m for m in keep if effective_status(m)[0] != "running"]
    doomed: List[Dict[str, Any]] = []
    if max_age_days is not None:
        cutoff = (now if now is not None else time.time()) - max_age_days * 86400.0
        for manifest in collectable:
            if (manifest.get("started_unix") or 0.0) < cutoff:
                doomed.append(manifest)
    if max_runs is not None:
        # Newest first already; everything past the first max_runs goes.
        survivors = [m for m in collectable if m not in doomed]
        doomed.extend(survivors[max_runs:])
    if max_bytes is not None:
        survivors = [m for m in collectable if m not in doomed]
        sizes = {m["run_id"]: run_size_bytes(root, m["run_id"]) for m in survivors}
        total = sum(sizes.values())
        for manifest in reversed(survivors):  # oldest first
            if total <= max_bytes:
                break
            doomed.append(manifest)
            total -= sizes[manifest["run_id"]]

    for manifest in doomed:
        removed.append(manifest)
        if not dry_run:
            _delete_run(root, manifest["run_id"])
    return removed
