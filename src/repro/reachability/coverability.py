"""Coverability: Karp–Miller trees and backward analysis.

A population protocol is a Petri net with one place per state and, for
each transition ``p, q -> p', q'``, a net transition consuming
``<p, q>`` and producing ``<p', q'>``.  Questions of the form "can a
configuration covering ``m`` be reached?" are *coverability* questions,
for which two classical complete procedures exist:

* the **Karp–Miller tree** with omega-acceleration, which computes the
  downward closure of the reachability set of a single initial
  configuration (here: of a single initial *family*, since initial
  configurations are parameterised by the input); and
* **backward coverability**, which saturates the upward-closed set of
  configurations that can cover a target, represented by its finite
  set of minimal elements.

The paper uses coverability through Rackoff's theorem (in the proof of
Lemma 3.2): if some configuration covering a state ``q`` is reachable
from ``C'``, then one is reachable by a sequence of length at most
``2^(2(2n+1)!)``.  The procedures here make such covering sequences
constructive on concrete protocols; the astronomically larger Rackoff
*bound* itself lives in :mod:`repro.bounds.constants`.

Omega entries are represented by ``math.inf``; extended configurations
are tuples mixing ints and ``inf``.

The Karp–Miller tree runs on the frontier engine of
:mod:`repro.reachability.frontier`, which expands each configuration
once up to the root-fixing protocol automorphisms (so ``node_budget``
bounds the work) while keeping the classic limit antichain exactly.
Both procedures take ``jobs``, which fans expansion out across the
process pool with task-order merging (bit-identical results at any
width), and ``checkpoint_interval`` makes long Karp–Miller runs
resumable through the content-addressed cache — see the engine module
for the soundness arguments.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..cache.decorator import cached_analysis
from ..core.errors import SearchBudgetExceeded
from ..core.multiset import Multiset
from ..core.protocol import IndexedProtocol, PopulationProtocol
from ..obs import get_tracer, progress
from ..parallel import run_tasks
from ..parallel.pool import chunk_ranges, default_chunk_size, worker_pool
from .frontier import (
    OMEGA,
    ExtendedConfig,
    KarpMillerFrontier,
    Permutation,
    _decode_config,
    _encode_config,
    _leq,
)

__all__ = [
    "OMEGA",
    "KarpMillerTree",
    "karp_miller",
    "is_coverable_from",
    "backward_coverability_basis",
    "minimal_coverers",
]

DEFAULT_NODE_BUDGET = 200_000


class KarpMillerTree:
    """The result of a Karp–Miller construction.

    Attributes
    ----------
    indexed:
        The dense view the tree was built over: an
        :class:`IndexedProtocol`, or a net's
        :class:`~repro.vas.model.IndexedNet`.
    limits:
        The set of maximal extended configurations discovered.  Their
        downward closure equals the downward closure of the reachable
        set (restricted to the explored roots).  This is the unique
        minimal antichain of that closure, so it is identical whether
        or not the construction ran sharded.
    nodes:
        Every extended configuration created during the construction:
        the exploration that expands each canonical configuration once,
        a subset of the classic tree's node set.
    accelerations:
        For each node that gained an ω-component, the branch ancestors
        whose strict domination introduced it — the acceleration
        ancestry, preserved through the cache round-trip.
    group:
        The root-fixing automorphism permutations the construction
        canonicalised by (just the identity for most protocols, and
        for every net).
    """

    def __init__(
        self,
        indexed: IndexedProtocol,
        limits: Set[ExtendedConfig],
        nodes: Set[ExtendedConfig],
        accelerations: Optional[Dict[ExtendedConfig, Tuple[ExtendedConfig, ...]]] = None,
        group: Optional[Tuple[Permutation, ...]] = None,
    ):
        self.indexed = indexed
        self.limits = limits
        self.nodes = nodes
        self.accelerations = {} if accelerations is None else accelerations
        self.group = (tuple(range(indexed.n)),) if group is None else group

    def covers(self, target: Sequence[int]) -> bool:
        """Is some reachable configuration >= ``target`` (coverability)?"""
        target_t = tuple(target)
        return any(_leq(target_t, limit) for limit in self.limits)

    def place_bounded(self, state_index: int) -> bool:
        """Is the number of agents in the given state bounded?"""
        return all(limit[state_index] != OMEGA for limit in self.limits)

    def covers_multiset(self, target: Multiset) -> bool:
        """Coverability query with a multiset target over the view's states."""
        return self.covers(self.indexed.encode(target))


def karp_miller(
    protocol: PopulationProtocol,
    roots: Iterable[Sequence[Union[int, float]]],
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    jobs: int = 1,
    checkpoint_interval: Optional[int] = None,
) -> KarpMillerTree:
    """Build a Karp–Miller tree from the given roots.

    Roots may already contain :data:`OMEGA` entries; passing
    ``(OMEGA, 0, ..., 0)`` with omega on the input state analyses the
    protocol *for all inputs at once*, which is how the leaderless
    analyses in this package use it.

    Each configuration is expanded once, up to the root-fixing
    protocol automorphisms, and ``jobs`` shards frontier expansion
    across the process pool; the ``limits`` antichain and every
    coverability verdict are those of the classic tree walk at any
    ``jobs`` (the differential suite
    ``tests/test_coverability_sharded.py`` holds the engine to a
    test-local classic walk).  ``checkpoint_interval`` writes a
    resumable partial tree into the active cache store every
    that-many expansions; a later identical call (any budget, any
    jobs) resumes from it.

    Results are memoised through :mod:`repro.cache` (content-addressed
    by protocol, roots and budget) when the active store is enabled;
    pre-indexed first arguments bypass the cache.

    Raises :class:`SearchBudgetExceeded` when more than ``node_budget``
    tree nodes are created; a run expands at most ``node_budget`` plus
    the number of roots configurations, so the budget bounds the work.
    """
    # Materialise roots before the cached inner function keys on them
    # (callers may pass generators).
    return _karp_miller(
        protocol,
        [tuple(root) for root in roots],
        node_budget,
        jobs=jobs,
        checkpoint_interval=checkpoint_interval,
    )


def _km_params(arguments):
    # jobs and checkpoint_interval deliberately excluded: they are
    # execution strategy, not analysis identity — the differential
    # contract guarantees the result does not depend on them.
    return {
        "roots": [_encode_config(root) for root in arguments["roots"]],
        "node_budget": int(arguments["node_budget"]),
    }


def _km_encode(tree: KarpMillerTree, protocol: PopulationProtocol):
    return {
        "limits": [_encode_config(c) for c in sorted(tree.limits)],
        "nodes": [_encode_config(c) for c in sorted(tree.nodes)],
        "accelerations": [
            [_encode_config(node), [_encode_config(a) for a in used]]
            for node, used in sorted(tree.accelerations.items())
        ],
        "group": [list(perm) for perm in tree.group],
    }


def _km_decode(payload, protocol: PopulationProtocol) -> KarpMillerTree:
    indexed = protocol.indexed()
    limits = {_decode_config(row) for row in payload["limits"]}
    nodes = {_decode_config(row) for row in payload["nodes"]}
    accelerations = {
        _decode_config(node): tuple(_decode_config(a) for a in used)
        for node, used in payload["accelerations"]
    }
    group = tuple(tuple(int(i) for i in perm) for perm in payload["group"])
    for config in limits | nodes:
        if len(config) != indexed.n:
            raise ValueError("configuration width does not match the protocol")
    return KarpMillerTree(indexed, limits, nodes, accelerations=accelerations, group=group)


@cached_analysis(
    "coverability.karp_miller",
    params=_km_params,
    encode=_km_encode,
    decode=_km_decode,
)
def _karp_miller(
    protocol: PopulationProtocol,
    roots: List[ExtendedConfig],
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    jobs: int = 1,
    checkpoint_interval: Optional[int] = None,
) -> KarpMillerTree:
    indexed = protocol.indexed() if isinstance(protocol, PopulationProtocol) else protocol
    with get_tracer().span(
        "coverability.karp_miller",
        states=indexed.n,
        transitions=len(indexed.deltas),
        node_budget=node_budget,
        jobs=jobs,
    ) as span:
        engine = KarpMillerFrontier(
            indexed,
            roots,
            node_budget=node_budget,
            jobs=jobs,
            checkpoint_interval=checkpoint_interval,
        )
        try:
            result = engine.run()
        except SearchBudgetExceeded:
            span.add("budget_exceeded")
            if engine.stats.checkpoints_written:
                span.add("checkpoints", engine.stats.checkpoints_written)
            raise
        span.add("nodes", len(result.nodes))
        span.add("limits", len(result.limits))
        span.add("expansions", result.stats.expansions)
        if result.stats.dedup_hits:
            span.add("dedup_hits", result.stats.dedup_hits)
        if result.stats.checkpoints_written:
            span.add("checkpoints", result.stats.checkpoints_written)
        if result.stats.resumed:
            span.add("resumed")
            span.set(resumed_expansions=result.stats.resumed_expansions)
    return KarpMillerTree(
        indexed,
        result.limits,
        result.nodes,
        accelerations=result.accelerations,
        group=result.group,
    )


def is_coverable_from(
    protocol: PopulationProtocol,
    root: Sequence[Union[int, float]],
    target: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    jobs: int = 1,
) -> bool:
    """Coverability query: can ``root`` reach some ``C >= target``?"""
    return karp_miller(protocol, [root], node_budget=node_budget, jobs=jobs).covers(target)


def _minimise(vectors: Iterable[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Keep only the <=-minimal vectors of a finite collection."""
    vecs = list(dict.fromkeys(vectors))
    minimal: List[Tuple[int, ...]] = []
    for v in vecs:
        if any(_leq(m, v) and m != v for m in vecs):
            continue
        minimal.append(v)
    return minimal


def _backward_candidates(task) -> List[Tuple[int, ...]]:
    """One backward-coverability round over a slice of the basis.

    Candidates already covered by the *current* basis are filtered in
    the worker (each worker carries the full basis), so the parent only
    minimises.  Pure function of (basis, slice), hence shard-invariant.
    """
    protocol, basis, start, stop = task.payload
    indexed = protocol.indexed() if isinstance(protocol, PopulationProtocol) else protocol
    out: List[Tuple[int, ...]] = []
    for m in basis[start:stop]:
        for k in indexed.non_silent:
            delta = indexed.deltas[k]
            pre = indexed.pres[k]
            candidate = tuple(max(p, x - d) for p, x, d in zip(pre, m, delta))
            if not any(_leq(b, candidate) for b in basis):
                out.append(candidate)
    return out


def backward_coverability_basis(
    protocol: PopulationProtocol,
    target: Sequence[int],
    iteration_budget: int = 10_000,
    *,
    jobs: int = 1,
) -> List[Tuple[int, ...]]:
    """Minimal basis of ``{C : C can reach some C' >= target}``.

    Classic backward coverability: starting from the upward closure of
    ``target``, repeatedly add the minimal predecessors
    ``max(pre_t, m - Delta_t)`` for each transition ``t`` until the
    basis stabilises.  Termination is guaranteed by Dickson's lemma;
    the ``iteration_budget`` guards against pathological blow-up.

    ``jobs`` shards each round's basis across the process pool; merged
    candidate lists come back in basis order, so the result is
    bit-identical to the serial run.

    Returns the minimal elements of the final upward-closed set.
    """
    indexed = protocol.indexed() if isinstance(protocol, PopulationProtocol) else protocol
    base = indexed.protocol

    basis: List[Tuple[int, ...]] = _minimise([tuple(int(x) for x in target)])
    with get_tracer().span(
        "coverability.backward",
        states=indexed.n,
        iteration_budget=iteration_budget,
        jobs=jobs,
    ) as span:
        meter = progress("backward-coverability", lambda: {"basis": len(basis)})
        with worker_pool(jobs) as pool:
            for _ in range(iteration_budget):
                meter.tick()
                span.add("rounds")
                chunk = default_chunk_size(len(basis), jobs)
                payloads = [
                    (base, basis, start, stop)
                    for start, stop in chunk_ranges(len(basis), chunk)
                ]
                results = run_tasks(
                    _backward_candidates,
                    payloads,
                    jobs=jobs,
                    label="backward-coverability",
                    executor=pool,
                )
                new_elements: List[Tuple[int, ...]] = []
                for envelope in results:
                    new_elements.extend(envelope.value)
                if not new_elements:
                    meter.finish()
                    span.add("basis", len(basis))
                    return basis
                basis = _minimise(basis + new_elements)
        span.add("budget_exceeded")
    raise SearchBudgetExceeded(
        f"backward coverability did not stabilise within {iteration_budget} rounds"
    )


def minimal_coverers(
    protocol: PopulationProtocol,
    state: object,
    iteration_budget: int = 10_000,
    *,
    jobs: int = 1,
) -> List[Multiset]:
    """Minimal configurations from which the given *state* can be covered.

    Convenience wrapper around :func:`backward_coverability_basis` with
    the unit target on ``state``, decoded back to multisets.  Used to
    answer "which populations can ever produce an agent in ``q``?" —
    the covering question at the heart of Lemma 3.2's proof.
    """
    indexed = protocol.indexed()
    target = [0] * indexed.n
    target[indexed.index[state]] = 1
    basis = backward_coverability_basis(protocol, target, iteration_budget, jobs=jobs)
    return [indexed.decode(b) for b in basis]
