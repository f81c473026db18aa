"""Command-line interface: build, verify, simulate, certify protocols.

Usage (``python -m repro <command> ...``)::

    # compile a predicate into a protocol and store it
    python -m repro compile "x >= 5 and x = 0 (mod 2)" -o alarm.json

    # builtins work everywhere a protocol is expected
    python -m repro describe binary:10
    python -m repro verify binary:10 "x >= 10" --max-input 14
    python -m repro simulate majority --input x=60,y=40 --seed 1
    python -m repro simulate majority --input x=60,y=40 --trials 50 --jobs 4
    python -m repro conformance majority --jobs 2
    python -m repro bb 2 --jobs 2
    python -m repro certify binary:4 --section 4
    python -m repro dot binary:8

    # analyses are memoised on disk; inspect or bypass the cache
    python -m repro cache stats
    python -m repro --no-cache analyze binary:4

Protocol arguments are either a path to a JSON file produced by
``compile``/:func:`repro.io.dumps`, or a builtin spec:

    ``binary:ETA`` ``flat:ETA`` ``majority`` ``modulo:R:M``
    ``leader-unary:ETA`` ``leader-binary:ETA`` ``election``
    ``linear:PREDICATE`` (a single threshold atom)
    ``approx-majority`` ``double-exp:K`` ``leroux-leader:K``

The scenario library bundles the curated families with declared
property checks (``repro scenarios list|run|check``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from .analysis.verification import format_trace, verify_protocol
from .bounds.pipeline import section4_certificate, section5_certificate
from .cache import CacheStore, active_store, protocol_fingerprint, use_store
from .core.errors import ConfigurationError, ReproError
from .core.multiset import Multiset
from .core.parser import parse_predicate
from .core.predicates import Predicate
from .core.protocol import PopulationProtocol
from .io import dumps, loads, to_dot
from .obs import (
    DEFAULT_BASELINE_PATH as _DEFAULT_BASELINE,
    SpanExporter,
    Tracer,
    build_profile,
    get_metrics,
    disable_progress,
    enable_progress,
    exporter_for_path,
    load_trace,
    render_profile,
    set_progress_interval,
    set_tracer,
    summarize_trace,
    trace_summary,
)
from .obs import runs as runlog
from .obs.report import render_report_for_run
from .protocols import (
    approximate_majority,
    binary_threshold,
    compile_predicate,
    double_exp_threshold,
    flat_threshold,
    leader_binary_threshold,
    leader_unary_threshold,
    leroux_leader_threshold,
    majority_protocol,
    modulo_protocol,
)
from .parallel import resolve_jobs
from .protocols.leader_election import leader_election
from .scenarios import SCENARIOS, get_scenario, run_checks
from .simulation import CountScheduler, check_conformance
from .simulation.ensembles import run_ensemble

__all__ = ["main", "resolve_protocol"]


def resolve_protocol(spec: str) -> PopulationProtocol:
    """Resolve a CLI protocol argument: JSON path or builtin spec."""
    if os.path.exists(spec):
        with open(spec) as handle:
            return loads(handle.read())
    name, _, argument = spec.partition(":")
    try:
        if name == "binary":
            return binary_threshold(int(argument))
        if name == "flat":
            return flat_threshold(int(argument))
        if name == "majority":
            return majority_protocol()
        if name == "modulo":
            remainder, _, modulus = argument.partition(":")
            return modulo_protocol({"x": 1}, int(remainder), int(modulus))
        if name == "leader-unary":
            return leader_unary_threshold(int(argument))
        if name == "leader-binary":
            return leader_binary_threshold(int(argument))
        if name == "election":
            return leader_election()
        if name == "linear":
            return compile_predicate(parse_predicate(argument))
        if name == "approx-majority":
            return approximate_majority()
        if name == "double-exp":
            return double_exp_threshold(int(argument))
        if name == "leroux-leader":
            return leroux_leader_threshold(int(argument))
    except (ValueError, ReproError) as error:
        raise SystemExit(f"error: cannot build {spec!r}: {error}")
    raise SystemExit(
        f"error: {spec!r} is neither a file nor a builtin "
        "(binary:N flat:N majority modulo:R:M leader-unary:N leader-binary:N "
        "election linear:PRED approx-majority double-exp:K leroux-leader:K)"
    )


def _parse_input(text: str) -> Multiset:
    """Parse ``x=60,y=40`` (or a bare integer) into an input multiset."""
    text = text.strip()
    if text.isdigit():
        return Multiset({"x": int(text)})
    counts = {}
    for part in text.split(","):
        variable, _, count = part.partition("=")
        variable = variable.strip()
        if not count.strip().isdigit():
            raise SystemExit(f"error: malformed input assignment {part!r} (want var=count)")
        if variable in counts:
            raise SystemExit(f"error: input variable {variable!r} assigned twice in {text!r}")
        counts[variable] = int(count)
    return Multiset(counts)


def _parse_predicate_argument(
    text: str, protocol: Optional[PopulationProtocol] = None
) -> Predicate:
    """Parse a predicate argument; with ``protocol``, check its variables."""
    try:
        predicate = parse_predicate(text)
    except ValueError as error:
        raise SystemExit(f"error: predicate {text!r}: {error}")
    if protocol is not None:
        unknown = [v for v in predicate.variables() if v not in protocol.input_mapping]
        if unknown:
            raise SystemExit(
                f"error: predicate {text!r}: {protocol.name} has no input "
                f"{', '.join(map(str, unknown))} "
                f"(its inputs: {', '.join(map(str, protocol.input_mapping))})"
            )
    return predicate


# ----------------------------------------------------------------------
# Observability plumbing
# ----------------------------------------------------------------------


def _int_at_least(text: str, minimum: int, note: str = "") -> int:
    """An argparse integer >= ``minimum``, rejected with a clean message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}{note}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    return _int_at_least(text, 1)


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0, rejected with a clean message."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _jobs_count(text: str) -> int:
    """argparse type for ``--jobs``: an integer >= 0 (0 = all cores)."""
    return _int_at_least(text, 0, " (0 = all cores)")


def _nonneg_int(text: str) -> int:
    """argparse type: an integer >= 0 (``runs gc --max-runs 0`` is valid)."""
    return _int_at_least(text, 0)


def _max_input(text: str) -> int:
    """argparse type for ``--max-input``: a population needs two agents."""
    return _int_at_least(text, 2, " (a population needs two agents)")


def _witness_count(text: str) -> int:
    """argparse type for ``bb --max-witnesses``: 1 up to the search's cap."""
    from .bounds.enumeration import MAX_WITNESSES

    value = _positive_int(text)
    if value > MAX_WITNESSES:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_WITNESSES}, got {value}")
    return value


# Output-file flags checked open-and-fail-fast before any work starts:
# a multi-hour search must not die at the final write because the
# artifact directory never existed.
_ARTIFACT_FLAGS = (
    ("trace", "--trace"),
    ("out", "--out"),
    ("output", "--output"),
)


def _validate_artifact_paths(args) -> None:
    for attr, flag in _ARTIFACT_FLAGS:
        path = getattr(args, attr, None)
        if not path:
            continue
        existed = os.path.exists(path)
        try:
            handle = open(path, "a")
        except OSError as error:
            raise SystemExit(f"error: cannot write {flag} file {path!r}: {error}")
        handle.close()
        if not existed:
            # The probe must not leave debris when the command then
            # fails before producing the artifact.
            try:
                os.remove(path)
            except OSError:
                pass


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """``--trace`` / ``--progress`` on the long-running commands."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a trace: Chrome trace-event JSON (Perfetto-loadable), "
        "or a JSONL event log when FILE ends in .jsonl",
    )
    parser.add_argument(
        "--trace-memory",
        action="store_true",
        help="record per-span tracemalloc peaks/net allocations into the "
        "trace (needs --trace; slows allocation-heavy code)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="emit periodic progress heartbeats to stderr",
    )
    parser.add_argument(
        "--progress-interval",
        type=_positive_float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between heartbeats (default 1.0, must be > 0)",
    )


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` on the parallelisable commands (results never depend on it)."""
    parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        metavar="N",
        help="worker processes (default 1 = in-process; 0 = all cores); "
        "results are bit-identical for every value",
    )


# Commands whose invocations are worth a registry entry: the
# long-running analyses and searches, not the instant inspectors.
_RECORDED_COMMANDS = frozenset({"analyze", "certify", "simulate", "conformance", "bb"})


def _should_record(args) -> bool:
    command = getattr(args, "command", None)
    if command == "bench":
        return getattr(args, "bench_command", None) in ("run", "baseline")
    if command == "scenarios":
        return getattr(args, "scenarios_command", None) in ("run", "check")
    return command in _RECORDED_COMMANDS


def _open_run(args, argv: Optional[List[str]]) -> Optional["runlog.RunRecorder"]:
    """Open the run manifest, or ``None`` when recording is off.

    Recording must never break the command: an unwritable state
    directory degrades to a warning.
    """
    if not _should_record(args):
        return None
    root = runlog.runs_root()
    if root is None:
        return None
    command = args.command
    if command == "bench":
        command = f"bench {args.bench_command}"
    elif command == "scenarios":
        command = f"scenarios {args.scenarios_command}"
    try:
        recorder = runlog.RunRecorder.open(
            root,
            command=command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            seed=getattr(args, "seed", None),
            jobs=getattr(args, "jobs", None),
        )
    except OSError as error:
        print(f"warning: run recording disabled: {error}", file=sys.stderr)
        return None
    runlog.set_current_run(recorder)
    return recorder


@contextmanager
def _observability(args, recorder: Optional["runlog.RunRecorder"] = None) -> Iterator[None]:
    """Activate tracing/progress around a command, restoring on exit.

    A recorded run always gets a live tracer with the recorder as one
    of its exporters: spans and heartbeats flow into the run's one
    stream, ``trace.jsonl``, whether or not the user asked for
    ``--trace``/``--progress``.
    """
    trace_path = getattr(args, "trace", None)
    trace_memory = getattr(args, "trace_memory", False)
    progress_on = getattr(args, "progress", False)
    if trace_memory and not trace_path:
        raise SystemExit("error: --trace-memory requires --trace FILE")
    # Pace trace/run-mirrored heartbeats too, not just stderr ones.
    set_progress_interval(getattr(args, "progress_interval", 1.0))
    if not trace_path and not progress_on and recorder is None:
        yield
        return
    exporters: List[SpanExporter] = []
    if trace_path:
        exporters.append(exporter_for_path(trace_path))
    if recorder is not None:
        exporters.append(recorder)
        if trace_path:
            recorder.link_artifact("user_trace", trace_path)
    tracer = Tracer(exporters, memory=trace_memory)
    previous = set_tracer(tracer)
    if progress_on:
        enable_progress(interval=getattr(args, "progress_interval", 1.0))
    try:
        yield
    finally:
        set_tracer(previous)
        tracer.close()
        if progress_on:
            disable_progress()
        if trace_path:
            print(
                f"trace: {tracer.finished_spans} spans written to {trace_path} "
                f"(inspect with `repro trace summarize {trace_path}`)",
                file=sys.stderr,
            )


# ----------------------------------------------------------------------
# Analysis cache plumbing
# ----------------------------------------------------------------------


def _resolve_cache_store(args) -> Optional[CacheStore]:
    """The store the whole command runs under (None = caching off)."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        return CacheStore(cache_dir)
    return active_store()


@contextmanager
def _caching(args) -> Iterator[None]:
    """Activate the resolved store; report session hits/misses on exit.

    The summary goes to stderr so ``--json`` stdout stays byte-identical
    between cached and fresh runs.
    """
    store = _resolve_cache_store(args)
    counters = get_metrics("cache").counters
    before = dict(counters)
    # Mirror the resolution into the environment so spawned workers
    # (--jobs) resolve the same store; their hit/miss counters come
    # back through the parallel backend's metrics-delta merge.
    saved = {k: os.environ.get(k) for k in ("REPRO_NO_CACHE", "REPRO_CACHE_DIR")}
    if store is None:
        os.environ["REPRO_NO_CACHE"] = "1"
    else:
        os.environ.pop("REPRO_NO_CACHE", None)
        os.environ["REPRO_CACHE_DIR"] = store.directory
    try:
        with use_store(store):
            yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    if store is None:
        return
    hits = counters.get("hits", 0) - before.get("hits", 0)
    misses = counters.get("misses", 0) - before.get("misses", 0)
    if hits or misses:
        print(
            f"cache: {hits} hits, {misses} misses ({store.directory})",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _cmd_compile(args) -> int:
    predicate = _parse_predicate_argument(args.predicate)
    protocol = compile_predicate(predicate)
    if args.trim:
        protocol = protocol.restricted_to_coverable()
    payload = dumps(protocol)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote {protocol.num_states}-state protocol for {predicate} to {args.output}")
    else:
        print(payload)
    return 0


def _cmd_describe(args) -> int:
    protocol = resolve_protocol(args.protocol)
    print(protocol.describe())
    return 0


def _cmd_verify(args) -> int:
    protocol = resolve_protocol(args.protocol)
    predicate = _parse_predicate_argument(args.predicate, protocol)
    report = verify_protocol(protocol, predicate, max_input_size=args.max_input)
    if report.ok:
        print(f"OK: {protocol.name} computes {predicate} (all {report.inputs_checked} inputs "
              f"up to size {args.max_input})")
        return 0
    ce = report.counterexample
    print(f"FAIL on input {ce.inputs.pretty()}: {ce.reason}")
    print(f"  trace: {format_trace(ce.trace)}")
    return 1


def _cmd_simulate(args) -> int:
    protocol = resolve_protocol(args.protocol)
    inputs = _parse_input(args.input)
    try:
        protocol.initial_configuration(inputs)
    except ConfigurationError as error:
        raise SystemExit(f"error: --input {args.input!r}: {error}")
    if args.trials is not None:
        return _simulate_batch(args, protocol, inputs)
    if args.engine != "count":
        raise SystemExit(
            f"error: --engine {args.engine} needs --trials (the vector engine "
            "steps a whole ensemble at once)"
        )
    scheduler = CountScheduler(protocol, seed=args.seed)
    result = scheduler.run(inputs, max_steps=args.max_steps)
    verdict = protocol.output_of(result.configuration)
    if args.json:
        # Self-describing artifact: the seed makes the run reproducible
        # from the file alone.
        payload = {
            "protocol": protocol.name,
            "seed": args.seed,
            "input": {variable: count for variable, count in inputs.items()},
            "max_steps": args.max_steps,
            "population": result.population,
            "interactions": result.interactions,
            "parallel_time": result.parallel_time,
            "converged": result.converged,
            "configuration": {str(q): c for q, c in result.configuration.items()},
            "output": verdict,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"population: {result.population}")
        print(f"interactions: {result.interactions} (parallel time {result.parallel_time:.1f})")
        print(f"converged: {result.converged}")
        print(f"final configuration: {result.configuration.pretty()}")
        print(f"consensus output: {verdict}")
    return 0 if result.converged else 2


def _simulate_batch(args, protocol: PopulationProtocol, inputs: Multiset) -> int:
    """``simulate --trials N``: a seeded ensemble, optionally parallel.

    Trial ``t`` runs under ``--seed`` + ``t``.
    """
    population = protocol.initial_configuration(inputs).size
    try:
        result = run_ensemble(
            protocol,
            inputs,
            trials=args.trials,
            max_parallel_time=args.max_steps / max(1, population),
            seed=args.seed,
            jobs=args.jobs,
            engine=args.engine,
        )
    except OverflowError as error:  # the vector engine's int64 limits
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "protocol": protocol.name,
            "engine": args.engine,
            "seed": args.seed,
            "jobs": resolve_jobs(args.jobs),
            "trials": args.trials,
            "input": {variable: count for variable, count in inputs.items()},
            "max_steps": args.max_steps,
            "population": population,
            "converged": result.converged,
            "convergence_rate": result.convergence_rate,
            "verdicts": {str(verdict): count for verdict, count in sorted(
                result.verdicts.items(), key=lambda item: str(item[0]))},
            "parallel_time_median": (
                result.time_quantile(0.5) if result.parallel_times else None
            ),
            "parallel_time_p90": (
                result.time_quantile(0.9) if result.parallel_times else None
            ),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"population: {population} (root seed {args.seed})")
        print(result.summary())
    return 0 if result.converged == result.trials else 2


def _default_conformance_input(protocol) -> Multiset:
    """A small non-trivial input when the user does not supply one."""
    variables = list(protocol.input_mapping)
    if not variables:
        raise SystemExit("error: protocol has no input variables")
    if len(variables) == 1:
        return Multiset({variables[0]: 8})
    # uneven counts so that majority-style predicates are decided
    counts = [5, 3] + [2] * (len(variables) - 2)
    return Multiset(dict(zip(variables, counts)))


def _cmd_conformance(args) -> int:
    protocol = resolve_protocol(args.protocol)
    inputs = _parse_input(args.input) if args.input else _default_conformance_input(protocol)
    report = check_conformance(
        protocol,
        inputs,
        samples=args.samples,
        trajectory_seeds=tuple(range(args.trajectory_seeds)),
        seed=args.seed,
        jobs=args.jobs,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_certify(args) -> int:
    protocol = resolve_protocol(args.protocol)
    if args.section == 5:
        certificate = section5_certificate(protocol, max_input=args.max_input)
    else:
        certificate = section4_certificate(protocol, max_length=args.max_input)
    if certificate is None:
        print("no certificate found within the search bounds")
        return 1
    report = certificate.check()
    print(report.conclusion)
    print(f"  a = {report.a}, pump b = {report.b}")
    print(f"  basis element proof: {report.basis_proof}")
    for note in report.notes:
        print(f"  {note}")
    return 0


def _cmd_dot(args) -> int:
    protocol = resolve_protocol(args.protocol)
    print(to_dot(protocol))
    return 0


def _cmd_analyze(args) -> int:
    from .bounds.report import full_report

    if args.protocol is None:
        raise SystemExit("error: analyze requires a protocol (or --resume RUN)")
    protocol = resolve_protocol(args.protocol)
    predicate = (
        _parse_predicate_argument(args.predicate, protocol) if args.predicate else None
    )
    print(
        full_report(
            protocol,
            predicate,
            max_input=args.max_input,
            node_budget=args.node_budget,
            jobs=args.jobs,
            quotient=args.quotient,
            checkpoint_interval=args.checkpoint_interval,
        )
    )
    return 0


def _cmd_bb(args) -> int:
    from .bounds.enumeration import busy_beaver_search, count_deterministic_protocols

    result = busy_beaver_search(
        args.states,
        max_input=args.max_input,
        max_witnesses=args.max_witnesses,
        enumeration_budget=args.budget,
        jobs=args.jobs,
        chunk_size=args.chunk_size,
    )
    if args.json:
        payload = {
            "n": result.n,
            "jobs": resolve_jobs(args.jobs),
            "eta": result.eta,
            "witnesses": [protocol.name for protocol in result.witnesses],
            "protocols_enumerated": result.protocols_enumerated,
            "protocols_total": count_deterministic_protocols(args.states),
            "threshold_protocols": result.threshold_protocols,
            "checked_up_to": result.checked_up_to,
            "certified": result.certified,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"BB({result.n}) >= {result.eta} "
              f"(verdicts exact up to input {result.checked_up_to})")
        print(f"enumerated: {result.protocols_enumerated} of "
              f"{count_deterministic_protocols(args.states)} deterministic protocols")
        print(f"threshold protocols found: {result.threshold_protocols}")
        for protocol in result.witnesses:
            print(f"  witness: {protocol.name}")
        print("certificate: "
              + ("Section 4 pump checked" if result.certified else "none within horizon"))
    return 0


def _require_store(args) -> CacheStore:
    """The store a ``repro cache ...`` command operates on."""
    store = _resolve_cache_store(args)
    if store is None:
        raise SystemExit(
            "error: caching is disabled (--no-cache or REPRO_NO_CACHE); "
            "there is no store to inspect"
        )
    return store


def _cmd_cache_stats(args) -> int:
    stats = _require_store(args).stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"directory: {stats['directory']}")
    print(f"schema: v{stats['schema']}")
    print(f"disk entries: {stats['disk_entries']} ({stats['disk_bytes']} bytes)")
    for analysis, count in sorted(stats["by_analysis"].items()):
        print(f"  {analysis}: {count}")
    print(f"memory entries: {stats['memory_entries']} (limit {stats['memory_limit']})")
    session = stats["session"]
    if session:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(session.items()))
        print(f"session counters: {rendered}")
    return 0


def _cmd_cache_clear(args) -> int:
    store = _require_store(args)
    removed = store.clear()
    print(f"cleared {removed} cached entries from {store.directory}")
    return 0


def _cmd_cache_path(args) -> int:
    print(_require_store(args).directory)
    return 0


def _cmd_trace_summarize(args) -> int:
    try:
        records = load_trace(args.file)
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: cannot read trace {args.file!r}: {error}")
    if args.json:
        print(json.dumps(trace_summary(records, sort=args.sort), indent=2))
        return 0
    print(summarize_trace(records, sort=args.sort))
    return 0


# ----------------------------------------------------------------------
# Work profiles (`repro profile ...`)
# ----------------------------------------------------------------------


def _cmd_profile_record(args) -> int:
    from .obs import profile as prof

    # File-vs-workload is decided by existence on disk; say which way
    # it went so a stray file shadowing a workload name is visible.
    if os.path.exists(args.target):
        print(
            f"record: {args.target!r} exists on disk; aggregating it as a "
            "trace file",
            file=sys.stderr,
        )
        try:
            records = load_trace(args.target)
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: cannot read trace {args.target!r}: {error}")
        profile = prof.build_profile(
            records, meta={"source_trace": os.path.abspath(args.target)}
        )
    else:
        print(
            f"record: {args.target!r} is not a file; recording the registered "
            "bench workload",
            file=sys.stderr,
        )
        from .cache.store import cache_disabled
        from .obs import get_workload, ledger

        try:
            workload = get_workload(args.target)
        except KeyError as error:
            raise SystemExit(f"error: {error.args[0]}")
        jobs = resolve_jobs(args.jobs)
        with cache_disabled():
            workload.run(jobs=jobs)  # the ledger's warm-up, never recorded
            work, profile = ledger.trace_workload(workload, jobs=jobs)
        profile.meta["work"] = work
    prof.write_profile(args.out, profile)
    print(
        f"profile: {len(profile.paths)} paths from {profile.span_count} spans "
        f"-> {args.out}"
    )
    return 0


def _load_profile_arg(path: str):
    from .obs import profile as prof

    try:
        return prof.load_profile(path)
    except prof.ProfileError as error:
        raise SystemExit(f"error: {error}")


def _cmd_profile_show(args) -> int:
    from .obs import profile as prof

    if args.metric is not None and not args.folded:
        raise SystemExit("error: --metric only applies to --folded output")
    profile = _load_profile_arg(args.file)
    if args.json:
        print(json.dumps(prof.profile_to_dict(profile), indent=2, sort_keys=True))
    elif args.folded:
        sys.stdout.write(prof.to_folded(profile, metric=args.metric or "self_us"))
    elif args.speedscope:
        print(json.dumps(prof.to_speedscope(profile), indent=1))
    else:
        print(prof.render_profile(profile, sort=args.sort, limit=args.limit))
    return 0


def _cmd_profile_diff(args) -> int:
    from .obs import profile as prof

    base = _load_profile_arg(args.base)
    new = _load_profile_arg(args.new)
    diff = prof.diff_profiles(
        base,
        new,
        time_threshold=args.time_threshold,
        base_label=args.base,
        new_label=args.new,
    )
    print(diff.render())
    if diff.work_drift():
        print("\nFAIL: exact work-count drift between the profiles")
        return 1
    return 0


# ----------------------------------------------------------------------
# The run registry (`repro runs ...`)
# ----------------------------------------------------------------------


def _runs_registry_root(args) -> str:
    """The registry the inspection command reads (``--runs-dir`` wins)."""
    return runlog.resolve_root(getattr(args, "runs_dir", None))


def _resolve_run(args) -> tuple:
    """``(root, run_id)`` for a run spec, with clean CLI errors."""
    root = _runs_registry_root(args)
    try:
        return root, runlog.resolve_run_id(root, args.run)
    except runlog.RunsError as error:
        raise SystemExit(f"error: {error}")


def _fmt_started(manifest) -> str:
    import time as _time

    started = manifest.get("started_unix")
    if not isinstance(started, (int, float)):
        return "-"
    return _time.strftime("%Y-%m-%d %H:%M:%S", _time.gmtime(started))


def _cmd_runs_list(args) -> int:
    from .fmt import render_table

    root = _runs_registry_root(args)
    manifests = runlog.list_runs(root)[: args.limit]
    if args.json:
        payload = []
        for manifest in manifests:
            status, stale = runlog.effective_status(manifest)
            entry = dict(manifest)
            entry["status"] = status
            entry["stale"] = stale
            payload.append(entry)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not manifests:
        print(f"no runs recorded under {root}")
        return 0
    rows = []
    for manifest in manifests:
        status, stale = runlog.effective_status(manifest)
        duration = manifest.get("duration_s")
        rows.append(
            [
                manifest["run_id"],
                status + ("*" if stale else ""),
                manifest.get("command", "?"),
                _fmt_started(manifest),
                f"{duration:.1f}s" if isinstance(duration, (int, float)) else "-",
                manifest.get("jobs") or "-",
            ]
        )
    print(render_table(["run", "status", "command", "started (UTC)", "duration", "jobs"], rows))
    if any(row[1].endswith("*") for row in rows):
        print("\n* inferred killed: recorded PID is gone but the run was never finalized")
    return 0


def _cmd_runs_show(args) -> int:
    root, run_id = _resolve_run(args)
    manifest = runlog.load_manifest(root, run_id)
    status, stale = runlog.effective_status(manifest)
    if stale:
        # Persist the post-mortem verdict so every later reader agrees.
        manifest = runlog.mark_stale_killed(root, manifest)
        status = manifest["status"]
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    directory = runlog.run_directory(root, run_id)
    try:
        events, spans = runlog.read_stream(root, run_id)
    except runlog.RunsError as error:
        raise SystemExit(f"error: {error}")
    print(f"run: {run_id}")
    print(f"status: {status}" + (" (inferred: PID gone, never finalized)" if stale else ""))
    print(f"command: repro {' '.join(manifest.get('argv', []))}")
    print(f"started: {_fmt_started(manifest)} UTC  pid: {manifest.get('pid')}")
    duration = manifest.get("duration_s")
    print(f"duration: {duration}s" if duration is not None else "duration: still running")
    if manifest.get("seed") is not None:
        print(f"seed: {manifest['seed']}")
    if manifest.get("jobs") is not None:
        print(f"jobs: {manifest['jobs']}")
    if manifest.get("exit_code") is not None:
        print(f"exit code: {manifest['exit_code']}")
    if manifest.get("signal"):
        print(f"signal: {manifest['signal']}")
    print(f"events: {len(events)}  spans: {len(spans)}")
    cache = manifest.get("cache") or {}
    if cache:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(cache.items()))
        print(f"cache: {rendered}")
    for kind, path in sorted((manifest.get("artifacts") or {}).items()):
        resolved = path if os.path.isabs(path) else os.path.join(directory, path)
        print(f"artifact [{kind}]: {resolved}")
    print()
    print(render_profile(build_profile(spans), sort="total"))
    if manifest.get("error"):
        print(f"\nerror:\n{manifest['error']}")
    return 0


def _render_event_line(event) -> str:
    attrs = event.get("attrs") or {}
    detail = " ".join(f"{key}={value}" for key, value in attrs.items())
    stamp = event.get("wall_unix")
    prefix = ""
    if isinstance(stamp, (int, float)):
        import time as _time

        prefix = _time.strftime("%H:%M:%S", _time.gmtime(stamp)) + " "
    return f"{prefix}{event.get('name', '?')}" + (f" {detail}" if detail else "")


def _cmd_runs_tail(args) -> int:
    root, run_id = _resolve_run(args)
    manifest = runlog.load_manifest(root, run_id)
    print(f"tailing run {run_id} ({manifest.get('command', '?')}, "
          f"pid {manifest.get('pid')})", file=sys.stderr)
    try:
        for event in runlog.follow_events(
            root,
            run_id,
            follow=not args.no_follow,
            interval=args.interval,
            timeout=args.timeout,
        ):
            print(_render_event_line(event))
    except runlog.RunsError as error:
        raise SystemExit(f"error: {error}")
    status, _ = runlog.effective_status(runlog.load_manifest(root, run_id))
    print(f"run {run_id}: {status}", file=sys.stderr)
    return 0


def _cmd_runs_gc(args) -> int:
    root = _runs_registry_root(args)
    if args.max_runs is None and args.max_age_days is None and args.max_bytes is None:
        raise SystemExit(
            "error: give at least one retention policy "
            "(--max-runs N, --max-age-days D, --max-bytes B)"
        )
    removed = runlog.gc_runs(
        root,
        max_runs=args.max_runs,
        max_age_days=args.max_age_days,
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    for manifest in removed:
        print(f"{verb}: {manifest['run_id']} ({manifest.get('status')})")
    kept = len(runlog.list_runs(root))
    print(f"gc: {verb} {len(removed)} runs, {kept} kept ({root})")
    return 0


def _cmd_runs_report(args) -> int:
    root, run_id = _resolve_run(args)
    try:
        document = render_report_for_run(root, run_id)
    except runlog.RunsError as error:
        raise SystemExit(f"error: {error}")
    out = args.out or f"{run_id}.html"
    with open(out, "w") as handle:
        handle.write(document)
    print(f"report: {out} ({os.path.getsize(out)} bytes, self-contained)")
    return 0


def _cmd_runs_diff(args) -> int:
    from .obs import profile as prof

    root = _runs_registry_root(args)
    profiles = []
    run_ids = []
    try:
        for spec in (args.run_a, args.run_b):
            run_id = runlog.resolve_run_id(root, spec)
            manifest = runlog.load_manifest(root, run_id)
            _, spans = runlog.read_stream(root, run_id)
            if not spans:
                print(f"warning: run {run_id} recorded no spans", file=sys.stderr)
            profiles.append(prof.build_profile(spans, meta={"run": run_id}))
            run_ids.append(run_id)
            print(f"{run_id}: repro {' '.join(manifest.get('argv', []))}")
    except runlog.RunsError as error:
        raise SystemExit(f"error: {error}")
    diff = prof.diff_profiles(
        profiles[0],
        profiles[1],
        time_threshold=args.time_threshold,
        base_label=f"run {run_ids[0]}",
        new_label=f"run {run_ids[1]}",
    )
    print()
    print(diff.render())
    if diff.work_drift():
        print("\nFAIL: exact work-count drift between the runs")
        return 1
    return 0


# ----------------------------------------------------------------------
# The performance ledger (`repro bench ...`)
# ----------------------------------------------------------------------


def _cmd_bench_run(args) -> int:
    from .obs import ledger

    artifact = ledger.run_suite(
        args.suite,
        repeats=args.repeats,
        jobs=args.jobs,
        memory=not args.no_memory,
    )
    ledger.write_artifact(args.out, artifact)
    if runlog.current_run() is not None:
        runlog.current_run().link_artifact("bench_out", args.out)
    workloads = artifact["workloads"]
    total = sum(entry["median_s"] for entry in workloads.values())
    print(
        f"bench: {len(workloads)} workloads ({args.suite} suite, "
        f"{args.repeats} repeats, ~{total:.2f}s median total) -> {args.out}"
    )
    if artifact["env"]["git_sha"]:
        print(f"  env: {artifact['env']['git_sha'][:12]} "
              f"py{artifact['env']['python']} jobs={args.jobs}")
    return 0


def _cmd_bench_compare(args) -> int:
    from .obs import ledger

    try:
        base = ledger.load_artifact(args.base)
        new = ledger.load_artifact(args.new)
        report = ledger.compare_artifacts(
            base,
            new,
            time_threshold=args.time_threshold,
            memory_threshold=args.memory_threshold,
            base_path=args.base,
            new_path=args.new,
        )
    except ledger.LedgerError as error:
        raise SystemExit(f"error: {error}")
    print(report.render())
    if report.ok(args.fail_on):
        return 0
    kinds = sorted({f.kind for f in report.regressions()})
    print(f"\nFAIL ({args.fail_on} policy): regressions of kind {', '.join(kinds)}")
    return 1


def _cmd_bench_baseline(args) -> int:
    from .obs import ledger

    out = args.out or ledger.DEFAULT_BASELINE_PATH
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    artifact = ledger.run_suite(
        args.suite, repeats=args.repeats, jobs=args.jobs, memory=not args.no_memory
    )
    ledger.write_artifact(out, artifact)
    if runlog.current_run() is not None:
        runlog.current_run().link_artifact("bench_out", out)
    print(f"baseline: {len(artifact['workloads'])} workloads ({args.suite} suite) -> {out}")
    print("commit this file so `repro bench compare` and CI can gate on it")
    return 0


def _cmd_bench_list(args) -> int:
    from .fmt import render_table
    from .obs import iter_workloads

    rows = [
        [w.name, ",".join(w.suites), "yes" if w.parallel else "-", w.description]
        for w in iter_workloads(args.suite)
    ]
    print(render_table(["workload", "suites", "--jobs", "description"], rows))
    return 0


def _selected_scenarios(args):
    """The (scenario, instance) pairs a ``scenarios`` subcommand targets."""
    if args.scenario == "all":
        selected = list(SCENARIOS.values())
    else:
        try:
            selected = [get_scenario(args.scenario)]
        except KeyError as error:
            raise SystemExit(f"error: {error.args[0]}")
    instance_label = getattr(args, "instance", None)
    if instance_label is not None and len(selected) != 1:
        raise SystemExit("error: --instance needs a single named scenario, not 'all'")
    pairs = []
    for scenario in selected:
        if instance_label is not None:
            try:
                pairs.append((scenario, scenario.instance(instance_label)))
            except KeyError as error:
                raise SystemExit(f"error: {error.args[0]}")
        elif getattr(args, "smallest", False):
            pairs.append((scenario, scenario.smallest))
        else:
            pairs.extend((scenario, instance) for instance in scenario.instances)
    return pairs


def _cmd_scenarios_list(args) -> int:
    from .fmt import render_table

    rows = []
    for scenario in SCENARIOS.values():
        for instance in scenario.instances:
            protocol = instance.build()
            rows.append(
                [
                    scenario.name,
                    instance.label,
                    str(len(protocol.states)),
                    str(len(protocol.transitions)),
                    str(len(instance.checks)),
                    "; ".join(scenario.references),
                ]
            )
    print(render_table(["scenario", "instance", "states", "rules", "checks", "references"], rows))
    return 0


def _run_scenario_instance(args, scenario, instance, *, conformance: bool) -> dict:
    """One instance through the pipeline; returns the JSON-able record."""
    protocol = instance.build()
    record = {
        "scenario": scenario.name,
        "instance": instance.label,
        "protocol": protocol.name,
        "fingerprint": protocol_fingerprint(protocol),
    }
    if conformance:
        report = check_conformance(
            protocol,
            scenario.conformance_input,
            samples=args.samples,
            seed=args.seed,
            jobs=args.jobs,
        )
        record["conformance_ok"] = report.ok
    outcomes = run_checks(
        protocol,
        instance.checks,
        instance.options(jobs=args.jobs, quotient=args.quotient, seed=args.seed),
    )
    record["checks"] = [outcome.to_dict() for outcome in outcomes]
    record["ok"] = all(outcome.passed for outcome in outcomes) and record.get(
        "conformance_ok", True
    )
    return record


def _print_scenario_record(record: dict) -> None:
    print(f"== {record['scenario']} [{record['instance']}]  {record['protocol']}")
    print(f"   fingerprint {record['fingerprint'][:16]}")
    if "conformance_ok" in record:
        verdict = "pass" if record["conformance_ok"] else "FAIL"
        print(f"   conformance: {verdict}")
    for outcome in record["checks"]:
        verdict = "pass" if outcome["passed"] else "FAIL"
        print(f"   {verdict:4}  {outcome['name']} = {outcome['source']}")
        print(f"         {outcome['detail']}")
        witness = outcome.get("witness")
        if witness and witness["trace"]:
            steps = format_trace(Multiset(step) for step in witness["trace"])
            print(f"         witness: {steps}")


def _cmd_scenarios(args, *, conformance: bool) -> int:
    records = [
        _run_scenario_instance(args, scenario, instance, conformance=conformance)
        for scenario, instance in _selected_scenarios(args)
    ]
    if args.json:
        print(json.dumps(records, indent=2))
    else:
        for record in records:
            _print_scenario_record(record)
    failed = [r for r in records if not r["ok"]]
    if failed and not args.json:
        names = ", ".join(f"{r['scenario']}[{r['instance']}]" for r in failed)
        print(f"FAILED: {names}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_scenarios_run(args) -> int:
    return _cmd_scenarios(args, conformance=True)


def _cmd_scenarios_check(args) -> int:
    return _cmd_scenarios(args, conformance=False)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for documentation tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Population protocols: build, verify, simulate, certify.",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed analysis cache for this command "
        "(equivalent to REPRO_NO_CACHE=1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="use DIR as the analysis cache instead of the default "
        "(~/.cache/repro or REPRO_CACHE_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a predicate into a protocol (JSON)")
    p.add_argument("predicate", help='e.g. "x >= 5 and x = 0 (mod 2)"')
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.add_argument("--trim", action="store_true", help="drop uncoverable states")
    p.set_defaults(handler=_cmd_compile)

    p = sub.add_parser("describe", help="print a protocol's definition")
    p.add_argument("protocol", help="JSON file or builtin spec (binary:10, majority, ...)")
    p.set_defaults(handler=_cmd_describe)

    p = sub.add_parser("verify", help="exactly verify a protocol against a predicate")
    p.add_argument("protocol")
    p.add_argument("predicate")
    p.add_argument("--max-input", type=_max_input, default=10)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("simulate", help="run the uniform random scheduler")
    p.add_argument("protocol")
    p.add_argument("--input", required=True, help='"x=60,y=40" or a bare count')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_positive_int, default=1_000_000)
    p.add_argument("--trials", type=_positive_int, default=None, metavar="N",
                   help="run a seeded N-run ensemble instead of a single run")
    p.add_argument("--engine", choices=("count", "vector"), default="count",
                   help="ensemble engine: 'count' steps each trial exactly, "
                   "'vector' advances the whole trial batch at once with "
                   "numpy (tau-leap; much faster at large populations; "
                   "requires --trials, runs in-process so --jobs is ignored)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable result (seed included)")
    _add_jobs_flag(p)
    _add_obs_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "conformance",
        help="check both simulators against the analytic one-step semantics",
    )
    p.add_argument("protocol")
    p.add_argument("--input", default=None, help='"x=60,y=40" or a bare count (default: small input)')
    p.add_argument("--samples", type=_positive_int, default=2000,
                   help="first-step samples per scheduler")
    p.add_argument("--trajectory-seeds", type=_positive_int, default=3,
                   help="seeds per trajectory invariant sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the machine-readable report")
    _add_jobs_flag(p)
    _add_obs_flags(p)
    p.set_defaults(handler=_cmd_conformance)

    p = sub.add_parser(
        "bb",
        help="bounded busy-beaver search: enumerate all n-state protocols",
    )
    p.add_argument("states", type=_positive_int, help="number of states n (n <= 2 is fast)")
    p.add_argument("--max-input", type=_max_input, default=8,
                   help="verdicts are exact for inputs up to this size")
    p.add_argument("--max-witnesses", type=_witness_count, default=3,
                   help="winning protocols to report (1 to 8)")
    p.add_argument("--budget", type=_nonneg_int, default=1_000_000,
                   help="stop enumerating after this many protocols")
    p.add_argument("--chunk-size", type=_positive_int, default=None,
                   help="protocols per work chunk (default: auto from --jobs)")
    p.add_argument("--json", action="store_true", help="emit the machine-readable result")
    _add_jobs_flag(p)
    _add_obs_flags(p)
    p.set_defaults(handler=_cmd_bb)

    p = sub.add_parser("certify", help="produce a checked eta <= a pumping certificate")
    p.add_argument("protocol")
    p.add_argument("--section", type=int, choices=(4, 5), default=4)
    p.add_argument("--max-input", type=_max_input, default=16)
    _add_obs_flags(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("dot", help="emit a Graphviz digraph of the protocol")
    p.add_argument("protocol")
    p.set_defaults(handler=_cmd_dot)

    p = sub.add_parser("analyze", help="run every analysis and print the full report")
    p.add_argument(
        "protocol",
        nargs="?",
        default=None,
        help="protocol to analyze (optional with --resume, which replays "
        "the recorded run's own arguments)",
    )
    p.add_argument("predicate", nargs="?", default=None, help="optional predicate to verify against")
    p.add_argument("--max-input", type=_max_input, default=8)
    p.add_argument(
        "--node-budget",
        type=_positive_int,
        default=500_000,
        metavar="N",
        help="Karp-Miller / verification node budget (default 500000)",
    )
    p.add_argument(
        "--quotient",
        action="store_true",
        help="expand each configuration of the coverability section once, "
        "up to protocol automorphisms (same limits and verdicts, fewer "
        "expansions)",
    )
    p.add_argument(
        "--checkpoint-interval",
        type=_positive_int,
        default=None,
        metavar="N",
        help="checkpoint the coverability frontier into the cache every N "
        "expansions, making a killed analysis resumable (--resume)",
    )
    p.add_argument(
        "--resume",
        metavar="RUN",
        default=None,
        help="replay a recorded run ('latest', id, or unique prefix) and "
        "resume its coverability frontier from the last checkpoint",
    )
    _add_jobs_flag(p)
    _add_obs_flags(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("trace", help="inspect trace files written with --trace")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser("summarize", help="per-span time/count table of a trace file")
    ps.add_argument("file", help="a .json (Chrome trace-event) or .jsonl trace")
    ps.add_argument(
        "--sort",
        choices=("total", "self", "count"),
        default="total",
        help="row order: total wall time (default), self time, or call count",
    )
    ps.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable summary (same rows as the table)",
    )
    ps.set_defaults(handler=_cmd_trace_summarize)

    p = sub.add_parser(
        "profile",
        help="hierarchical work profiles: record, render, and diff span trees",
    )
    profile_sub = p.add_subparsers(dest="profile_command", required=True)

    pp = profile_sub.add_parser(
        "record",
        help="aggregate a trace file — or a freshly traced bench workload — "
        "into a profile artifact",
    )
    pp.add_argument(
        "target",
        help="a trace file (.jsonl/.json) or a registered bench workload name",
    )
    pp.add_argument("--out", required=True, metavar="FILE",
                    help="profile artifact path, e.g. PROFILE_main.json")
    _add_jobs_flag(pp)
    pp.set_defaults(handler=_cmd_profile_record)

    pp = profile_sub.add_parser(
        "show", help="render a profile (table, JSON, folded stacks, speedscope)"
    )
    pp.add_argument("file", help="a profile artifact or a raw trace file")
    pp.add_argument(
        "--sort",
        choices=("self", "total", "count"),
        default="self",
        help="table row order (default: self time)",
    )
    pp.add_argument("--limit", type=_nonneg_int, default=0, metavar="N",
                    help="show at most N paths (0 = all)")
    fmt_group = pp.add_mutually_exclusive_group()
    fmt_group.add_argument("--json", action="store_true",
                           help="emit the profile artifact JSON")
    fmt_group.add_argument("--folded", action="store_true",
                           help="emit folded stacks (flamegraph.pl / inferno input)")
    fmt_group.add_argument("--speedscope", action="store_true",
                           help="emit a speedscope.app JSON document")
    pp.add_argument(
        "--metric",
        default=None,
        metavar="NAME",
        help="folded-stack weight: self_us (default), count, or a work "
        "counter name (requires --folded)",
    )
    pp.set_defaults(handler=_cmd_profile_show)

    pp = profile_sub.add_parser(
        "diff",
        help="align two profiles by span path; non-zero exit on work drift",
    )
    pp.add_argument("base", help="baseline profile artifact (or trace file)")
    pp.add_argument("new", help="candidate profile artifact (or trace file)")
    pp.add_argument(
        "--time-threshold",
        type=_positive_float,
        default=0.25,
        metavar="FRAC",
        help="relative self-time excess to flag (default 0.25 = +25%%)",
    )
    pp.set_defaults(handler=_cmd_profile_diff)

    p = sub.add_parser(
        "cache",
        help="inspect or clear the content-addressed analysis cache",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pc = cache_sub.add_parser("stats", help="entry counts, sizes, session counters")
    pc.add_argument("--json", action="store_true", help="emit machine-readable stats")
    pc.set_defaults(handler=_cmd_cache_stats)
    pc = cache_sub.add_parser("clear", help="remove every cached entry (all schemas)")
    pc.set_defaults(handler=_cmd_cache_clear)
    pc = cache_sub.add_parser("path", help="print the cache directory")
    pc.set_defaults(handler=_cmd_cache_path)

    p = sub.add_parser(
        "runs",
        help="the flight recorder: list, tail, report and prune recorded runs",
    )
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    def _add_runs_dir_flag(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--runs-dir",
            metavar="DIR",
            default=None,
            help="registry root (default REPRO_RUNS_DIR or ~/.local/state/repro/runs)",
        )

    pr = runs_sub.add_parser("list", help="recorded runs, newest first")
    pr.add_argument("--json", action="store_true", help="emit machine-readable manifests")
    pr.add_argument("--limit", type=_positive_int, default=20, metavar="N",
                    help="show at most N runs (default 20)")
    _add_runs_dir_flag(pr)
    pr.set_defaults(handler=_cmd_runs_list)

    pr = runs_sub.add_parser("show", help="one run's manifest, artifacts and work profile")
    pr.add_argument("run", nargs="?", default="latest",
                    help="run id, unique prefix, or 'latest' (default)")
    pr.add_argument("--json", action="store_true", help="emit the raw manifest")
    _add_runs_dir_flag(pr)
    pr.set_defaults(handler=_cmd_runs_show)

    pr = runs_sub.add_parser("tail", help="follow a run's events live")
    pr.add_argument("run", nargs="?", default="latest")
    pr.add_argument("--interval", type=_positive_float, default=0.5, metavar="SECONDS",
                    help="poll interval while following (default 0.5)")
    pr.add_argument("--timeout", type=_positive_float, default=None, metavar="SECONDS",
                    help="stop following after this long (default: until the run ends)")
    pr.add_argument("--no-follow", action="store_true",
                    help="print the events recorded so far and exit")
    _add_runs_dir_flag(pr)
    pr.set_defaults(handler=_cmd_runs_tail)

    pr = runs_sub.add_parser("gc", help="prune old runs by count, age, or size")
    pr.add_argument("--max-runs", type=_nonneg_int, default=None, metavar="N",
                    help="keep at most N finished runs (0 = remove all)")
    pr.add_argument("--max-age-days", type=_positive_float, default=None, metavar="D",
                    help="remove runs started more than D days ago")
    pr.add_argument("--max-bytes", type=_nonneg_int, default=None, metavar="B",
                    help="drop oldest runs until the registry fits in B bytes")
    pr.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without deleting")
    _add_runs_dir_flag(pr)
    pr.set_defaults(handler=_cmd_runs_gc)

    pr = runs_sub.add_parser("report", help="render a self-contained HTML run report")
    pr.add_argument("run", nargs="?", default="latest")
    pr.add_argument("-o", "--out", default=None, metavar="FILE",
                    help="output path (default <run_id>.html)")
    _add_runs_dir_flag(pr)
    pr.set_defaults(handler=_cmd_runs_report)

    pr = runs_sub.add_parser(
        "diff", help="profile-diff two recorded runs from their traces"
    )
    pr.add_argument("run_a", help="baseline run id, unique prefix, or 'latest'")
    pr.add_argument("run_b", help="candidate run id, unique prefix, or 'latest'")
    pr.add_argument(
        "--time-threshold",
        type=_positive_float,
        default=0.25,
        metavar="FRAC",
        help="relative self-time excess to flag (default 0.25 = +25%%)",
    )
    _add_runs_dir_flag(pr)
    pr.set_defaults(handler=_cmd_runs_diff)

    p = sub.add_parser(
        "bench",
        help="the performance ledger: run benchmark suites, diff artifacts",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    pb = bench_sub.add_parser(
        "run", help="run a workload suite and write a BENCH_*.json artifact"
    )
    pb.add_argument("--suite", default="micro", help="workload suite (micro, full)")
    pb.add_argument(
        "--repeats",
        type=_positive_int,
        default=5,
        metavar="N",
        help="timing repeats per workload (median/MAD recorded; default 5)",
    )
    pb.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="artifact path, e.g. BENCH_mybranch.json",
    )
    pb.add_argument(
        "--no-memory",
        action="store_true",
        help="skip the tracemalloc pass (peak/net memory recorded as null)",
    )
    _add_jobs_flag(pb)
    _add_obs_flags(pb)
    # The ledger runs every workload under cache_disabled(), so no
    # ambient store is resolved: the session's cache report must not
    # credit it with the hits of the cache workloads' private stores.
    pb.set_defaults(handler=_cmd_bench_run, no_cache=True)

    pb = bench_sub.add_parser(
        "compare", help="diff two artifacts; non-zero exit on regression"
    )
    pb.add_argument("base", help="baseline BENCH_*.json")
    pb.add_argument("new", help="candidate BENCH_*.json")
    pb.add_argument(
        "--time-threshold",
        type=_positive_float,
        default=0.25,
        metavar="FRAC",
        help="relative median-time excess to flag (default 0.25 = +25%%)",
    )
    pb.add_argument(
        "--memory-threshold",
        type=_positive_float,
        default=0.50,
        metavar="FRAC",
        help="relative peak-memory excess to flag (default 0.50 = +50%%)",
    )
    pb.add_argument(
        "--fail-on",
        choices=("any", "work"),
        default="any",
        help="exit non-zero on: any regression (default), or only exact "
        "work-count drift / missing workloads (CI shared-runner policy)",
    )
    pb.set_defaults(handler=_cmd_bench_compare)

    pb = bench_sub.add_parser(
        "baseline", help="(re)record the committed baseline artifact"
    )
    pb.add_argument("--suite", default="micro", help="workload suite (default micro)")
    pb.add_argument(
        "--repeats", type=_positive_int, default=5, metavar="N",
        help="timing repeats per workload (default 5)",
    )
    pb.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help=f"baseline path (default {_DEFAULT_BASELINE})",
    )
    pb.add_argument(
        "--no-memory", action="store_true",
        help="skip the tracemalloc pass",
    )
    _add_jobs_flag(pb)
    _add_obs_flags(pb)
    pb.set_defaults(handler=_cmd_bench_baseline, no_cache=True)

    pb = bench_sub.add_parser("list", help="list registered workloads")
    pb.add_argument(
        "--suite", default=None, help="restrict to one suite (default: all)"
    )
    pb.set_defaults(handler=_cmd_bench_list)

    p = sub.add_parser(
        "scenarios",
        help="scenario library: curated families with declared property checks",
    )
    scenarios_sub = p.add_subparsers(dest="scenarios_command", required=True)

    ps = scenarios_sub.add_parser("list", help="registered scenarios and instances")
    ps.set_defaults(handler=_cmd_scenarios_list)

    def _add_scenario_selection(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "scenario",
            nargs="?",
            default="all",
            help="scenario name, or 'all' (the default)",
        )
        sp.add_argument(
            "--instance",
            default=None,
            metavar="LABEL",
            help="run one labelled instance (needs a named scenario)",
        )
        sp.add_argument(
            "--smallest",
            action="store_true",
            help="only the smallest instance of each selected scenario",
        )
        sp.add_argument(
            "--quotient",
            action="store_true",
            help="quotient symmetric configurations in the coverability checks "
            "(verdicts are identical by contract)",
        )
        sp.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        _add_jobs_flag(sp)
        _add_obs_flags(sp)

    ps = scenarios_sub.add_parser(
        "run",
        help="full pipeline per instance: conformance + declared checks",
    )
    _add_scenario_selection(ps)
    ps.add_argument(
        "--samples",
        type=_positive_int,
        default=400,
        metavar="N",
        help="conformance sample count per sub-check (default 400)",
    )
    ps.set_defaults(handler=_cmd_scenarios_run)

    ps = scenarios_sub.add_parser(
        "check",
        help="declared property checks only (the CI smoke entry point)",
    )
    _add_scenario_selection(ps)
    ps.set_defaults(handler=_cmd_scenarios_check)

    return parser


def _resume_replay(parser: argparse.ArgumentParser, args, argv: List[str]):
    """Resolve ``analyze --resume RUN`` into the recorded run's own argv.

    Resuming must reproduce the killed run's *entire* configuration —
    protocol, budgets, ``--cache-dir`` and all — or the checkpoint
    lookup would miss (different store) or the tree would differ
    (different flags).  So the recorded argv is reparsed wholesale; the
    actual frontier restore then happens inside the engine, keyed by
    content address.  Runs before the checkpoint feature (or killed
    before the first checkpoint boundary) simply recompute from scratch.
    """
    spec = args.resume
    root = runlog.resolve_root()
    try:
        run_id = runlog.resolve_run_id(root, spec)
        manifest = runlog.load_manifest(root, run_id)
    except runlog.RunsError as error:
        raise SystemExit(f"error: --resume: {error}")
    replay = [token for token in manifest.get("argv", []) if token]
    if not replay:
        raise SystemExit(
            f"error: --resume: run {run_id} recorded no argv to replay"
        )
    replayed = parser.parse_args(replay)
    if getattr(replayed, "command", None) != "analyze":
        raise SystemExit(
            f"error: --resume: run {run_id} was `repro {manifest.get('command')}`, "
            "not an analyze run"
        )
    if getattr(replayed, "resume", None):
        raise SystemExit(
            f"error: --resume: run {run_id} was itself a --resume invocation; "
            "resume the original run instead"
        )
    if not manifest.get("checkpoints"):
        print(
            f"resume: run {run_id} recorded no checkpoint; recomputing from scratch",
            file=sys.stderr,
        )
    print(f"resume: replaying run {run_id}: repro {' '.join(replay)}", file=sys.stderr)
    return replayed, replay


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    effective_argv = list(argv) if argv is not None else sys.argv[1:]
    if getattr(args, "resume", None):
        args, effective_argv = _resume_replay(parser, args, effective_argv)
    _validate_artifact_paths(args)
    recorder = _open_run(args, effective_argv)
    try:
        with _caching(args), _observability(args, recorder):
            try:
                code = args.handler(args)
            except ReproError as error:
                raise SystemExit(f"error: {error}")
    except BrokenPipeError:
        # stdout went away (`repro trace summarize ... | head`): detach
        # quietly instead of tracing back.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 0
    except SystemExit as error:
        if recorder is not None:
            exit_code = error.code if isinstance(error.code, int) else 1
            # A SIGTERM/SIGINT path already sealed the manifest as
            # killed; finalize is idempotent, so this only catches
            # genuine `sys.exit` aborts.
            recorder.finalize(
                "ok" if exit_code == 0 else "failed",
                exit_code=exit_code,
                error=None if exit_code == 0 else str(error.code),
            )
        raise
    except KeyboardInterrupt:
        if recorder is not None:
            recorder.finalize("killed", exit_code=130, signal_name="SIGINT")
        raise
    except BaseException:
        if recorder is not None:
            import traceback

            recorder.finalize("failed", exit_code=1, error=traceback.format_exc())
        raise
    if recorder is not None:
        # Non-zero handler exits (a failed verification, a non-converged
        # ensemble) completed the command; the exit code records the
        # verdict, `failed` records that the outcome was not clean.
        recorder.finalize("ok" if code == 0 else "failed", exit_code=code)
        print(f"run recorded: {recorder.run_id}", file=sys.stderr)
    return code
