"""The benchmark workload registry behind ``repro bench``.

The E-series benchmarks (``benchmarks/bench_e*.py``) time the
reproduction's pipelines under pytest-benchmark, but a pytest session
leaves no longitudinal record — nothing compares this PR's numbers to
the last one's.  This module factors the *workloads* out of those
benchmark modules into a registry of plain callables so the ledger
(:mod:`repro.obs.ledger`) can run them programmatically, store the
results as schema-versioned artifacts, and diff artifacts across
commits.

A workload is deliberately more than a timed closure:

* it does **deterministic work** the ledger counts exactly
  (interactions simulated, Karp–Miller nodes expanded, Pottier
  frontier vectors, protocols enumerated).  Wall clock on a shared
  runner is noise; the work counts are exact, so a regression in
  *algorithmic* work is caught even when timings cannot be trusted;
* it declares which **suites** it belongs to (``micro`` is the fast
  subset CI runs on every push; ``full`` adds the heavier instances);
* it may accept a ``jobs`` hint, which the ledger runner threads
  through to the parallel backend (:func:`repro.parallel.run_tasks`)
  so the ledger can record how the pool behaves on this host.

Work counts recorded by span counters (``coverability.karp_miller``
counts ``nodes``; the Pottier completion counts ``frontier_vectors``)
are captured without the workload's help: the ledger's traced pass
runs each workload once under a recording tracer and keeps every
counter per span path.  A workload therefore returns only the counts
no span records — a count stored twice would drift twice.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Workload",
    "register_workload",
    "get_workload",
    "iter_workloads",
    "suite_names",
    "SUITE_MICRO",
    "SUITE_FULL",
]

SUITE_MICRO = "micro"
SUITE_FULL = "full"

WorkloadFn = Callable[..., Mapping[str, int]]


class Workload:
    """One registered benchmark workload.

    ``fn(jobs=N)`` runs the workload once and returns its own
    deterministic work counts (those no span records; possibly none).
    The same callable serves the ledger runner, the E14 pytest
    benchmark, and ad-hoc profiling.
    """

    __slots__ = ("name", "suites", "description", "fn", "parallel")

    def __init__(
        self,
        name: str,
        suites: Tuple[str, ...],
        description: str,
        fn: WorkloadFn,
        parallel: bool = False,
    ):
        self.name = name
        self.suites = suites
        self.description = description
        self.fn = fn
        self.parallel = parallel

    def run(self, jobs: int = 1) -> Dict[str, int]:
        """Execute once; returns the workload's own work-count dict."""
        counts = self.fn(jobs=jobs) if self.parallel else self.fn()
        return {key: int(value) for key, value in counts.items()}

    def __repr__(self) -> str:
        return f"Workload({self.name!r}, suites={self.suites})"


_REGISTRY: Dict[str, Workload] = {}


def register_workload(
    name: str,
    *,
    suites: Tuple[str, ...] = (SUITE_MICRO, SUITE_FULL),
    description: str = "",
    parallel: bool = False,
) -> Callable[[WorkloadFn], WorkloadFn]:
    """Decorator registering a workload callable under ``name``."""

    def decorate(fn: WorkloadFn) -> WorkloadFn:
        if name in _REGISTRY:
            raise ValueError(f"workload {name!r} registered twice")
        _REGISTRY[name] = Workload(name, suites, description, fn, parallel)
        return fn

    return decorate


def get_workload(name: str) -> Workload:
    """Look up one workload; raises ``KeyError`` with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r} (known: {known})")


def iter_workloads(suite: Optional[str] = None) -> List[Workload]:
    """Workloads in a suite (or all), in registration order."""
    if suite is None:
        return list(_REGISTRY.values())
    if suite not in suite_names():
        raise ValueError(
            f"unknown suite {suite!r} (known: {', '.join(sorted(suite_names()))})"
        )
    return [w for w in _REGISTRY.values() if suite in w.suites]


def suite_names() -> Iterable[str]:
    """Every suite any workload declares."""
    names = set()
    for workload in _REGISTRY.values():
        names.update(workload.suites)
    return names


# ----------------------------------------------------------------------
# The shipped workloads — each mirrors one E-series benchmark driver.
# Inputs are fixed and seeds are pinned so the work counts are exact
# reproducibility anchors, not samples.
# ----------------------------------------------------------------------


@register_workload(
    "simulate.count",
    description="CountScheduler to silent consensus (E10 exact sampler)",
)
def _simulate_count() -> Dict[str, int]:
    from ..protocols import binary_threshold
    from ..simulation import CountScheduler

    scheduler = CountScheduler(binary_threshold(8), seed=0)
    result = scheduler.run({"x": 400}, max_steps=200_000)
    return {"converged": int(result.converged)}


@register_workload(
    "simulate.batch",
    description="tau-leap engine, one trial, n=50k (E10 ladder top)",
)
def _simulate_batch() -> Dict[str, int]:
    from ..protocols import binary_threshold
    from ..simulation import VectorEnsembleScheduler

    scheduler = VectorEnsembleScheduler(binary_threshold(8), trials=1, seed=0)
    budget = 100_000
    scheduler.reset(50_000)
    done = 0
    leap = scheduler.leap_size
    while done < budget:
        done += int(scheduler.leap([min(leap, budget - done)])[0])
    return {"interactions": done}


@register_workload(
    "simulate.vector_cold",
    description="vector ensemble engine, 16 trials to consensus (E16)",
)
def _simulate_vector_cold() -> Dict[str, int]:
    from ..protocols import binary_threshold
    from ..simulation import VectorEnsembleScheduler

    scheduler = VectorEnsembleScheduler(binary_threshold(8), trials=16, seed=0)
    result = scheduler.run({"x": 400}, max_parallel_time=500)
    return {"trials": result.trials, "converged": int(result.converged.sum())}


def _large_ensemble_counts(engine: str) -> Dict[str, int]:
    """Shared instance for the vector-vs-scalar speedup pair (E16).

    64 trials at ``n = 10^6`` under a deliberately small time budget
    (2000 interactions per trial): neither engine converges, so the
    ``simulate.run`` span counts exactly ``64 * 2000`` interactions for
    both, and the median timings are directly comparable.
    """
    from ..protocols import binary_threshold
    from ..simulation.ensembles import run_ensemble

    result = run_ensemble(
        binary_threshold(8),
        1_000_000,
        trials=64,
        max_parallel_time=0.002,
        seed=0,
        engine=engine,
    )
    return {"trials": result.trials, "converged": result.converged}


@register_workload(
    "simulate.vector_large",
    description="vector ensemble engine, 64 trials at n=10^6 (E16 speedup pair)",
)
def _simulate_vector_large() -> Dict[str, int]:
    return _large_ensemble_counts("vector")


@register_workload(
    "simulate.scalar_large",
    description="count-engine ensemble, 64 trials at n=10^6 (E16 speedup pair)",
)
def _simulate_scalar_large() -> Dict[str, int]:
    return _large_ensemble_counts("count")


def _flat_omega_root(eta: int):
    """``flat:eta`` and its all-inputs-at-once root (omega on ``x``).

    The flat (unary) family is used because its omega-rooted tree
    grows with ``eta`` (the binary family saturates in a handful of
    nodes), so the workload actually exercises node expansion.
    """
    from ..protocols import flat_threshold
    from ..reachability.coverability import OMEGA
    from ..reachability.pseudo import input_state

    protocol = flat_threshold(eta)
    indexed = protocol.indexed()
    x_index = indexed.index[input_state(protocol)]
    return protocol, tuple(OMEGA if i == x_index else 0 for i in range(indexed.n))


def _flat_tree(eta: int, node_budget: int):
    """The omega-rooted tree of ``flat:eta``.  When it is built rather
    than served from the cache, its nodes and limits are
    ``coverability.karp_miller`` span counters, so a workload that only
    builds it has no count of its own."""
    from ..reachability.coverability import karp_miller

    protocol, root = _flat_omega_root(eta)
    return karp_miller(protocol, [root], node_budget=node_budget)


@register_workload(
    "coverability.karp_miller",
    description="Karp–Miller tree with an omega root (analyze hot path)",
)
def _karp_miller() -> Dict[str, int]:
    _flat_tree(6, node_budget=100_000)
    return {}


@register_workload(
    "pottier.realisable_basis",
    description="Contejean–Devie completion: Hilbert basis of realisables (E5)",
)
def _pottier_basis() -> Dict[str, int]:
    from ..protocols import binary_threshold
    from ..reachability import realisable_basis

    basis = realisable_basis(binary_threshold(4))
    return {"basis": len(basis)}


@register_workload(
    "saturation.sequence",
    description="Lemma 5.4 saturation sequence construction (E4)",
)
def _saturation() -> Dict[str, int]:
    from ..analysis import saturation_sequence
    from ..protocols import binary_threshold

    result = saturation_sequence(binary_threshold(6))
    return {
        "input_size": result.input_size,
        "sequence_length": result.sequence.length,
    }


@register_workload(
    "enumeration.bb2",
    description="busy-beaver enumeration of all 2-state protocols (E2/E13)",
    parallel=True,
)
def _bb2(jobs: int = 1) -> Dict[str, int]:
    from ..bounds.enumeration import busy_beaver_search

    result = busy_beaver_search(2, max_input=6, jobs=jobs)
    return {"eta": result.eta}


@register_workload(
    "certify.section4",
    description="Section 4 pumping certificate search (E7)",
)
def _section4() -> Dict[str, int]:
    from ..bounds.pipeline import section4_certificate
    from ..protocols import binary_threshold

    certificate = section4_certificate(binary_threshold(4), max_length=12)
    found = certificate is not None
    report = certificate.check() if found else None
    return {
        "found": int(found),
        "a": report.a if report is not None else 0,
    }


@register_workload(
    "verify.exact",
    description="exact predicate verification over all small inputs (E1)",
)
def _verify() -> Dict[str, int]:
    from .. import counting, verify_protocol
    from ..protocols import binary_threshold

    report = verify_protocol(binary_threshold(4), counting(4), max_input_size=10)
    return {"inputs_checked": report.inputs_checked, "ok": int(report.ok)}


@register_workload(
    "runs.manifest_overhead",
    description="run-registry open/finalize cycles in a tmp dir (E17 guard)",
)
def _runs_manifest_overhead() -> Dict[str, int]:
    import shutil
    import tempfile

    from .runs import RunRecorder, list_runs

    cycles = 20
    root = tempfile.mkdtemp(prefix="repro-bench-runs-")
    try:
        for index in range(cycles):
            recorder = RunRecorder.open(
                root,
                command="bench-workload",
                argv=["bench-workload", str(index)],
                seed=index,
                jobs=1,
                # The workload measures manifest I/O, not process-global
                # signal plumbing (and must not displace the CLI's own
                # handlers while a real `repro bench` is recording).
                install_handlers=False,
            )
            recorder.event("heartbeat:bench", iterations=index)
            recorder.finalize("ok", exit_code=0)
        manifests = len(list_runs(root))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"cycles": cycles, "manifests": manifests}


@register_workload(
    "obs.null_tracer",
    description="disabled-tracer span path, 200k iterations (E12 guard)",
)
def _null_tracer_overhead() -> Dict[str, int]:
    from .progress import progress
    from .tracer import get_tracer

    iterations = 200_000
    meter = progress("ledger-null")
    for _ in range(iterations):
        with get_tracer().span("hot"):
            meter.tick()
    return {"iterations": iterations}


# -- full-suite extras: the same pipelines at heavier instances --------


@register_workload(
    "coverability.karp_miller_large",
    suites=(SUITE_FULL,),
    description="Karp–Miller at flat:7 (heavier coverability instance)",
)
def _karp_miller_large() -> Dict[str, int]:
    _flat_tree(7, node_budget=200_000)
    return {}


@register_workload(
    "pottier.realisable_basis_large",
    suites=(SUITE_FULL,),
    description="Hilbert basis at binary:8 (E5 heaviest shipped instance)",
)
def _pottier_basis_large() -> Dict[str, int]:
    from ..protocols import binary_threshold
    from ..reachability import realisable_basis

    basis = realisable_basis(binary_threshold(8))
    return {"basis": len(basis)}


# -- cache warm-vs-cold pairs (E15) ------------------------------------
#
# Each pair runs the identical analysis twice: once against a freshly
# created store (every lookup misses, the full computation runs and the
# entry is written), once against a per-process warm directory that the
# ledger's unrecorded warm-up run populates (every lookup hits disk).
# The memory tier is off (``memory_entries=0``) so "warm" measures the
# decode path, not a dict lookup.  The ``cache.lookup`` span's hit/miss
# counters are part of the work counts: a warm run that recomputes is
# a regression the ledger's exact-work gate catches, not just a slow
# run.

_WARM_DIRS: Dict[str, str] = {}


def _warm_dir(name: str) -> str:
    """A per-process cache directory kept warm across ledger passes."""
    import atexit
    import shutil
    import tempfile

    if name not in _WARM_DIRS:
        path = tempfile.mkdtemp(prefix=f"repro-bench-{name}-")
        atexit.register(shutil.rmtree, path, True)
        _WARM_DIRS[name] = path
    return _WARM_DIRS[name]


def _with_store(directory: str, fn: Callable[[], Mapping[str, int]]) -> Dict[str, int]:
    """Run ``fn`` under a disk-only store."""
    from ..cache.store import CacheStore, use_store

    with use_store(CacheStore(directory, memory_entries=0)):
        return dict(fn())


def _cold_counts(fn: Callable[[], Mapping[str, int]]) -> Dict[str, int]:
    """Run ``fn`` against a store that is created and discarded per run."""
    import shutil
    import tempfile

    directory = tempfile.mkdtemp(prefix="repro-bench-cold-")
    try:
        return _with_store(directory, fn)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _pottier_large_counts() -> Dict[str, int]:
    from ..protocols import binary_threshold
    from ..reachability import realisable_basis

    return {"basis": len(realisable_basis(binary_threshold(10)))}


@register_workload(
    "cache.karp_miller_cold",
    description="Karp–Miller at flat:7 against an empty analysis cache (E15)",
)
def _cache_km_cold() -> Dict[str, int]:
    def build() -> Dict[str, int]:
        _flat_tree(7, node_budget=200_000)
        return {}

    return _cold_counts(build)


@register_workload(
    "cache.karp_miller_warm",
    description="Karp–Miller at flat:7 served from the disk cache (E15)",
)
def _cache_km_warm() -> Dict[str, int]:
    def sizes() -> Dict[str, int]:
        # Served from the cache, no Karp–Miller span runs: the tree's
        # sizes are this workload's own counts.
        tree = _flat_tree(7, node_budget=200_000)
        return {"nodes": len(tree.nodes), "limits": len(tree.limits)}

    return _with_store(_warm_dir("km"), sizes)


@register_workload(
    "coverability.sharded_cold",
    description="Karp–Miller at flat:8, 45 nodes for 45 expansions (E18)",
)
def _coverability_sharded_cold() -> Dict[str, int]:
    _flat_tree(8, node_budget=200_000)
    return {}


@register_workload(
    "coverability.sharded_resume",
    description="checkpointed Karp–Miller killed at the node budget, then resumed (E18)",
)
def _coverability_sharded_resume() -> Dict[str, int]:
    import shutil
    import tempfile

    from ..cache.store import CacheStore, use_store
    from ..core.errors import SearchBudgetExceeded
    from ..reachability.frontier import KarpMillerFrontier

    # Drives the frontier directly, so no Karp–Miller span runs: the
    # tree's sizes are this workload's own counts.
    protocol, root = _flat_omega_root(7)
    directory = tempfile.mkdtemp(prefix="repro-bench-kmresume-")
    try:
        with use_store(CacheStore(directory, memory_entries=0)):
            first = KarpMillerFrontier(
                protocol, [root], node_budget=12, checkpoint_interval=1
            )
            try:
                first.run()
            except SearchBudgetExceeded:
                pass
            second = KarpMillerFrontier(
                protocol, [root], node_budget=200_000, checkpoint_interval=1_000
            )
            result = second.run()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "nodes": len(result.nodes),
        "limits": len(result.limits),
        "checkpoints": first.stats.checkpoints_written,
        "resumed_expansions": second.stats.resumed_expansions,
    }


@register_workload(
    "cache.pottier_cold",
    description="Hilbert basis at binary:10 against an empty analysis cache (E15)",
)
def _cache_pottier_cold() -> Dict[str, int]:
    return _cold_counts(_pottier_large_counts)


@register_workload(
    "cache.pottier_warm",
    description="Hilbert basis at binary:10 served from the disk cache (E15)",
)
def _cache_pottier_warm() -> Dict[str, int]:
    return _with_store(_warm_dir("pottier"), _pottier_large_counts)


@register_workload(
    "simulate.ensemble",
    suites=(SUITE_FULL,),
    description="seeded 100-trial ensemble (E9 convergence sweep)",
    parallel=True,
)
def _ensemble(jobs: int = 1) -> Dict[str, int]:
    from ..protocols import binary_threshold
    from ..simulation.ensembles import run_ensemble

    result = run_ensemble(
        binary_threshold(4), 30, trials=100, seed=0, jobs=jobs
    )
    return {"trials": result.trials, "converged": result.converged}


def _synthetic_frontier_trace() -> List[Dict[str, object]]:
    """A deterministic sharded-frontier span forest (JSONL span shape).

    Mimics what a Karp–Miller run at ``--jobs 8`` records:
    per-round ``parallel.pool``/``parallel.task`` plumbing wrapping
    counter-carrying work spans.  Pure arithmetic — no clock, no RNG —
    so the aggregated profile is an exact reproducibility anchor.
    """
    spans: List[Dict[str, object]] = []
    next_id = 1
    rounds, shards = 40, 8
    for rnd in range(rounds):
        pool_id = next_id
        next_id += 1
        spans.append(
            {
                "name": "parallel.pool",
                "id": pool_id,
                "parent": None,
                "depth": 0,
                "start_us": rnd * 10_000.0,
                "dur_us": 9_000.0,
                "attrs": {"label": "frontier.round", "jobs": shards},
                "counters": {},
            }
        )
        for shard in range(shards):
            task_id = next_id
            next_id += 1
            base_us = rnd * 10_000.0 + shard * 1_000.0
            spans.append(
                {
                    "name": "parallel.task",
                    "id": task_id,
                    "parent": pool_id,
                    "depth": 1,
                    "start_us": base_us,
                    "dur_us": 900.0,
                    "attrs": {"task": shard},
                    "counters": {},
                }
            )
            work_id = next_id
            next_id += 1
            spans.append(
                {
                    "name": "frontier.expand",
                    "id": work_id,
                    "parent": task_id,
                    "depth": 2,
                    "start_us": base_us + 50.0,
                    "dur_us": 800.0,
                    "attrs": {},
                    "counters": {
                        "expansions": 3 + (rnd + shard) % 5,
                        "nodes": 1 + (rnd * shard) % 7,
                    },
                }
            )
            spans.append(
                {
                    "name": "cache.lookup",
                    "id": next_id,
                    "parent": work_id,
                    "depth": 3,
                    "start_us": base_us + 100.0,
                    "dur_us": 100.0,
                    "attrs": {},
                    "counters": {"hits": shard % 2},
                }
            )
            next_id += 1
    return spans


@register_workload(
    "obs.profile_aggregate",
    description="hierarchical profile aggregation over a synthetic sharded frontier trace (E19)",
)
def _profile_aggregate() -> Dict[str, int]:
    from .profile import build_profile

    profile = build_profile(_synthetic_frontier_trace())
    expansions = 0
    hits = 0
    for counters in profile.work_counts().values():
        expansions += counters.get("expansions", 0)
        hits += counters.get("hits", 0)
    return {
        "spans": profile.span_count,
        "paths": len(profile.paths),
        "spliced": profile.spliced_count,
        "expansions": expansions,
        "cache_hits": hits,
    }


def _scenario_counts(name: str) -> Dict[str, int]:
    """Shared driver: the smallest instance's full check block.

    The returned counts concatenate each check's verdict with its work
    counters (inputs verified, reachability graph sizes, tree limits,
    seeded ensemble trials), so any change in what a scenario check
    *does* — not just how long it takes — shows up as work drift.
    """
    from ..scenarios import get_scenario, run_checks

    instance = get_scenario(name).smallest
    outcomes = run_checks(instance.build(), instance.checks, instance.options())
    counts: Dict[str, int] = {
        "checks": len(outcomes),
        "checks_passed": sum(1 for outcome in outcomes if outcome.passed),
    }
    for outcome in outcomes:
        for key, value in outcome.work.items():
            counts[f"{outcome.name}.{key}"] = int(value)
    return counts


@register_workload(
    "scenarios.approx_majority",
    description="approx-majority scenario check block: exact sweeps + seeded vector ensemble (E20)",
)
def _scenarios_approx_majority() -> Dict[str, int]:
    return _scenario_counts("approx-majority")


@register_workload(
    "scenarios.double_exp",
    description="double-exp k=1 scenario check block: verification, stable slices, Section 4 (E20)",
)
def _scenarios_double_exp() -> Dict[str, int]:
    return _scenario_counts("double-exp")
