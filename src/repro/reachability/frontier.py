"""The Karp–Miller engine: one expansion per canonical configuration.

:mod:`repro.reachability.coverability` exposes the classic Karp–Miller
API; this module is the machinery underneath it.  The classic tree walk
expands every branch, so its cost is the number of branches re-deriving
a configuration, not the number of distinct configurations: on
``flat:8`` the tree has 45 nodes, yet the level-synchronous walk
performed 13,668 expansions.  This engine expands each configuration
once, and shards and checkpoints its rounds:

* **One expansion per canonical configuration.**  The tree is grown
  breadth-first, one level per round, and a configuration is enqueued
  only if its canonical form (the least element of its orbit under
  the root-fixing protocol automorphisms,
  :func:`configuration_symmetries`) has never been enqueued before.
  On the shipped families the group is the identity and this is the
  exact dedup of a visited set; a net's
  :class:`~repro.vas.model.IndexedNet` carries no protocol, so it gets
  the identity group too.  Branches still carry *genuine* ancestor
  chains: acceleration never compares against a permuted
  configuration, which keeps ω-introduction sound.  The exploration is
  a subtree of the classic tree, and completeness holds by a jump
  argument: a pruned leaf equals an automorphic image of an enqueued
  node, and the remaining firing sequence can be replayed through the
  automorphism from there.  At finalisation the node set is closed
  under the group orbit before taking maximal elements, so ``limits``
  is the classic tree's minimal antichain (the clover), bit for bit.
  Since each enqueued configuration is a distinct node, a run performs
  at most ``nodes + roots`` expansions: the node budget bounds the work.

* **Sharding** (``jobs>1``).  Each round's frontier is split into
  contiguous chunks expanded by :func:`repro.parallel.run_tasks`
  workers; results merge in task order, so the successor stream the
  parent consumes is the frontier order regardless of ``jobs`` — the
  serial run is the reference semantics, bit-identical at any width.

* **Checkpointing** (``checkpoint_interval``).  At round boundaries the
  engine snapshots (frontier, nodes, visited, accelerations) into the
  content-addressed cache, keyed by (protocol fingerprint,
  presentation, roots) — *not* by budget or jobs, so a
  budget-exceeded run leaves a checkpoint a larger-budget rerun picks
  up, and a SIGKILL'd ``repro analyze`` resumes via ``--resume``.
  Checkpoints register with the flight recorder (``km-checkpoint`` /
  ``km-resume`` events, a ``checkpoints`` manifest field) and are
  deleted once the analysis completes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.errors import SearchBudgetExceeded
from ..core.protocol import IndexedProtocol, PopulationProtocol
from ..obs import progress
from ..obs.runs import current_run
from ..parallel import run_tasks
from ..parallel.pool import chunk_ranges, default_chunk_size, resolve_jobs, worker_pool
from ..symmetry import search

__all__ = [
    "OMEGA",
    "ExtendedConfig",
    "Permutation",
    "CHECKPOINT_ANALYSIS",
    "CHECKPOINT_SCHEMA_VERSION",
    "apply_permutation",
    "canonical_config",
    "configuration_symmetries",
    "FrontierStats",
    "FrontierResult",
    "KarpMillerFrontier",
]

OMEGA = math.inf
"""The omega symbol of Karp–Miller trees ("unboundedly many agents")."""

ExtendedConfig = Tuple[Union[int, float], ...]

Permutation = Tuple[int, ...]
"""A state-index permutation ``p`` acting on configs by ``c[j] -> c[p[j]]``."""

CHECKPOINT_ANALYSIS = "coverability.checkpoint"
CHECKPOINT_SCHEMA_VERSION = 2


def _leq(a: ExtendedConfig, b: ExtendedConfig) -> bool:
    return all(x <= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Configuration symmetries
# ---------------------------------------------------------------------------


def apply_permutation(perm: Permutation, config: ExtendedConfig) -> ExtendedConfig:
    """The image of ``config`` under the permutation action."""
    return tuple(config[perm[j]] for j in range(len(perm)))


def canonical_config(config: ExtendedConfig, group: Sequence[Permutation]) -> ExtendedConfig:
    """The lexicographically least element of the group orbit of ``config``."""
    if len(group) <= 1:
        return config
    return min(apply_permutation(perm, config) for perm in group)


def configuration_symmetries(
    protocol: Union[PopulationProtocol, IndexedProtocol],
    roots: Sequence[ExtendedConfig],
) -> Tuple[Permutation, ...]:
    """Protocol automorphisms (as index permutations) fixing every root.

    The automorphisms come from :func:`repro.symmetry.search`, the same
    search the cache fingerprint uses.  Those that fix every root form
    a permutation group, returned in the ``c[j] -> c[perm[j]]`` action
    convention, identity first.  Above the search limit only the
    identity is returned: a smaller group merely prunes fewer branches,
    never at the cost of soundness.
    """
    indexed = protocol.indexed() if isinstance(protocol, PopulationProtocol) else protocol
    found = search(indexed.protocol)
    if found is None:
        return (tuple(range(indexed.n)),)
    group: List[Permutation] = []
    for renaming in found.automorphisms:
        # Renaming state s to t moves the count of s to t: image[t] = c[s].
        perm = [0] * indexed.n
        for state, image in renaming.items():
            perm[indexed.index[image]] = indexed.index[state]
        perm_t = tuple(perm)
        if all(apply_permutation(perm_t, root) == tuple(root) for root in roots):
            group.append(perm_t)
    return tuple(sorted(group))


# ---------------------------------------------------------------------------
# Frontier state, checkpoint codec
# ---------------------------------------------------------------------------

FrontierEntry = Tuple[ExtendedConfig, Tuple[ExtendedConfig, ...]]


@dataclass
class FrontierStats:
    """Operational counters of one engine run (not part of the tree)."""

    expansions: int = 0
    rounds: int = 0
    dedup_hits: int = 0
    resumed_expansions: int = 0
    checkpoints_written: int = 0
    resumed: bool = False


@dataclass
class FrontierResult:
    nodes: Set[ExtendedConfig]
    limits: Set[ExtendedConfig]
    accelerations: Dict[ExtendedConfig, Tuple[ExtendedConfig, ...]]
    group: Tuple[Permutation, ...]
    stats: FrontierStats = field(default_factory=FrontierStats)


def _encode_config(config: ExtendedConfig) -> List[Union[int, str]]:
    return ["w" if c == OMEGA else int(c) for c in config]


def _decode_config(row: Sequence[Union[int, str]]) -> ExtendedConfig:
    return tuple(OMEGA if c == "w" else int(c) for c in row)


class _FrontierState:
    """The resumable portion of a run: everything a round boundary needs."""

    def __init__(
        self,
        frontier: List[FrontierEntry],
        nodes: Set[ExtendedConfig],
        visited: Set[ExtendedConfig],
        accelerations: Dict[ExtendedConfig, Set[ExtendedConfig]],
        expansions: int,
        rounds: int,
    ) -> None:
        self.frontier = frontier
        self.nodes = nodes
        self.visited = visited
        self.accelerations = accelerations
        self.expansions = expansions
        self.rounds = rounds

    def snapshot(self) -> "_FrontierState":
        return _FrontierState(
            frontier=self.frontier,  # rebuilt (never mutated) between rounds
            nodes=set(self.nodes),
            visited=set(self.visited),
            accelerations={node: set(used) for node, used in self.accelerations.items()},
            expansions=self.expansions,
            rounds=self.rounds,
        )

    def encode(self) -> Dict[str, Any]:
        table: Dict[ExtendedConfig, int] = {}

        def cid(config: ExtendedConfig) -> int:
            index = table.get(config)
            if index is None:
                index = len(table)
                table[config] = index
            return index

        frontier = [
            [cid(config), [cid(a) for a in ancestors]]
            for config, ancestors in self.frontier
        ]
        nodes = sorted(cid(config) for config in sorted(self.nodes))
        visited = sorted(cid(config) for config in sorted(self.visited))
        accelerations = [
            [cid(node), sorted(cid(a) for a in sorted(used))]
            for node, used in sorted(self.accelerations.items())
        ]
        return {
            "version": CHECKPOINT_SCHEMA_VERSION,
            "expansions": self.expansions,
            "rounds": self.rounds,
            "configs": [_encode_config(config) for config in table],
            "frontier": frontier,
            "nodes": nodes,
            "visited": visited,
            "accelerations": accelerations,
        }

    @classmethod
    def decode(cls, payload: Dict[str, Any], n: int) -> "_FrontierState":
        if payload.get("version") != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
        configs = [_decode_config(row) for row in payload["configs"]]
        for config in configs:
            if len(config) != n:
                raise ValueError("checkpoint configuration width does not match")
        frontier = [
            (configs[index], tuple(configs[a] for a in ancestors))
            for index, ancestors in payload["frontier"]
        ]
        nodes = {configs[index] for index in payload["nodes"]}
        visited = {configs[index] for index in payload["visited"]}
        accelerations = {
            configs[index]: {configs[a] for a in used}
            for index, used in payload["accelerations"]
        }
        return cls(
            frontier=frontier,
            nodes=nodes,
            visited=visited,
            accelerations=accelerations,
            expansions=int(payload["expansions"]),
            rounds=int(payload["rounds"]),
        )


def checkpoint_key(
    fingerprint: str,
    presentation: str,
    roots: Sequence[ExtendedConfig],
) -> str:
    """Content address of a resumable run.

    Deliberately excludes ``node_budget``, ``jobs`` and the checkpoint
    interval: a run killed at any budget leaves state any compatible
    rerun — wider, deeper, or sharded differently — can pick up.
    """
    body = json.dumps(
        {
            "analysis": CHECKPOINT_ANALYSIS,
            "version": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "presentation": presentation,
            "roots": [_encode_config(root) for root in roots],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


def _accelerate(
    config: ExtendedConfig, chain: Tuple[ExtendedConfig, ...]
) -> Tuple[ExtendedConfig, Tuple[ExtendedConfig, ...]]:
    """Classic ω-acceleration against *genuine* branch ancestors.

    Returns the accelerated configuration plus the ancestors that
    introduced at least one new ω component (the acceleration ancestry
    recorded on the tree).
    """
    accelerated = list(config)
    used: List[ExtendedConfig] = []
    for ancestor in chain:
        if _leq(ancestor, config) and ancestor != config:
            introduced = False
            for idx in range(len(accelerated)):
                if ancestor[idx] < config[idx] and accelerated[idx] != OMEGA:
                    accelerated[idx] = OMEGA
                    introduced = True
            if introduced:
                used.append(ancestor)
    return tuple(accelerated), tuple(used)


def _expand_entries(task: Any) -> List[List[Tuple[ExtendedConfig, Tuple[ExtendedConfig, ...], bool]]]:
    """Expand one chunk of frontier entries (runs in a pool worker).

    For each entry, for each enabled non-silent transition, yields the
    accelerated successor, the ancestors used to accelerate it, and
    whether the successor terminates its branch (exact ancestor repeat
    — the classic stopping rule).  Pure function of the entries, so the
    merged stream is identical for any sharding.
    """
    indexed, entries = task.payload
    pres, deltas = indexed.pres, indexed.deltas
    out: List[List[Tuple[ExtendedConfig, Tuple[ExtendedConfig, ...], bool]]] = []
    for config, ancestors in entries:
        chain = ancestors + (config,)
        row: List[Tuple[ExtendedConfig, Tuple[ExtendedConfig, ...], bool]] = []
        for k in indexed.non_silent:
            if not _leq(pres[k], config):
                continue
            delta = deltas[k]
            successor = tuple(
                c if c == OMEGA else c + d for c, d in zip(config, delta)
            )
            successor, used = _accelerate(successor, chain)
            row.append((successor, used, successor in chain))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class KarpMillerFrontier:
    """One Karp–Miller construction over a level-synchronous frontier.

    It reads the dense view's ``n``, ``pres``, ``deltas`` and
    ``non_silent`` (so a net's :class:`~repro.vas.model.IndexedNet` runs
    on it too); only the automorphism group and the checkpoint key read
    ``indexed.protocol``.  A net has no protocol, so its group is the
    identity and its visited set dedups exact repeats.
    """

    def __init__(
        self,
        protocol: Union[PopulationProtocol, IndexedProtocol],
        roots: Sequence[ExtendedConfig],
        *,
        node_budget: int,
        jobs: int = 1,
        checkpoint_interval: Optional[int] = None,
    ) -> None:
        self.indexed = (
            protocol.indexed() if isinstance(protocol, PopulationProtocol) else protocol
        )
        self.roots: List[ExtendedConfig] = [tuple(root) for root in roots]
        for root in self.roots:
            if len(root) != self.indexed.n:
                raise ValueError("root configuration width does not match the protocol")
        self.node_budget = node_budget
        self.jobs = resolve_jobs(jobs)
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1, got {checkpoint_interval}")
        self.checkpoint_interval = checkpoint_interval
        self.group: Tuple[Permutation, ...] = (
            configuration_symmetries(self.indexed, self.roots)
            if isinstance(self.indexed, IndexedProtocol)
            else (tuple(range(self.indexed.n)),)
        )
        self.stats = FrontierStats()
        self._checkpoint_key: Optional[str] = None
        self._fingerprint: Optional[str] = None

    # -- checkpoint plumbing -------------------------------------------

    def _checkpoint_store(self) -> Optional[Any]:
        if self.checkpoint_interval is None:
            return None
        from ..cache.fingerprint import UncacheableProtocolError
        from ..cache.store import active_store

        store = active_store()
        if store is None:
            return None
        if self._checkpoint_key is None:
            from ..cache.fingerprint import presentation_digest, protocol_fingerprint

            try:
                self._fingerprint = protocol_fingerprint(self.indexed.protocol)
                presentation = presentation_digest(self.indexed.protocol)
            except UncacheableProtocolError:
                return None
            self._checkpoint_key = checkpoint_key(
                self._fingerprint, presentation, self.roots
            )
        return store

    def _write_checkpoint(self, store: Any, state: _FrontierState) -> None:
        assert self._checkpoint_key is not None and self._fingerprint is not None
        if not store.put_payload(
            CHECKPOINT_ANALYSIS, self._checkpoint_key, self._fingerprint, state.encode()
        ):
            return
        self.stats.checkpoints_written += 1
        run = current_run()
        if run is not None:
            info = {
                "expansions": state.expansions,
                "rounds": state.rounds,
                "nodes": len(state.nodes),
                "frontier": len(state.frontier),
            }
            run.note_checkpoint(CHECKPOINT_ANALYSIS, self._checkpoint_key, **info)
            run.event("km-checkpoint", key=self._checkpoint_key, **info)

    def _try_resume(self, store: Any) -> Optional[_FrontierState]:
        from ..cache.store import MISS

        assert self._checkpoint_key is not None
        payload = store.get_payload(CHECKPOINT_ANALYSIS, self._checkpoint_key)
        if payload is MISS:
            return None
        try:
            state = _FrontierState.decode(payload, self.indexed.n)
        except (KeyError, ValueError, TypeError, IndexError):
            store.invalidate(CHECKPOINT_ANALYSIS, self._checkpoint_key)
            return None
        run = current_run()
        if run is not None:
            run.event(
                "km-resume",
                key=self._checkpoint_key,
                expansions=state.expansions,
                rounds=state.rounds,
                nodes=len(state.nodes),
                frontier=len(state.frontier),
            )
        return state

    # -- the construction ----------------------------------------------

    def _initial_state(self) -> _FrontierState:
        nodes: Set[ExtendedConfig] = set()
        frontier: List[FrontierEntry] = []
        visited: Set[ExtendedConfig] = set()
        for root in self.roots:
            nodes.add(root)
            frontier.append((root, ()))
            visited.add(canonical_config(root, self.group))
        return _FrontierState(
            frontier=frontier,
            nodes=nodes,
            visited=visited,
            accelerations={},
            expansions=0,
            rounds=0,
        )

    def run(self) -> FrontierResult:
        store = self._checkpoint_store()
        state: Optional[_FrontierState] = None
        if store is not None:
            state = self._try_resume(store)
            if state is not None:
                self.stats.resumed = True
                self.stats.resumed_expansions = state.expansions
        if state is None:
            state = self._initial_state()

        last_checkpoint = state.expansions
        meter = progress(
            "karp-miller",
            lambda: {
                "frontier": len(state.frontier),
                "nodes": len(state.nodes),
                "rounds": state.rounds,
            },
        )
        with worker_pool(self.jobs) as pool:
            while state.frontier:
                boundary = state.snapshot() if store is not None else None
                if (
                    boundary is not None
                    and state.expansions - last_checkpoint >= self.checkpoint_interval
                ):
                    self._write_checkpoint(store, boundary)
                    last_checkpoint = state.expansions
                try:
                    self._expand_round(state, meter, pool)
                except SearchBudgetExceeded:
                    if boundary is not None:
                        self._write_checkpoint(store, boundary)
                    raise
        meter.finish()

        if store is not None:
            # The run completed: its result lands in the analysis cache,
            # so the partial-tree entry has nothing left to resume.
            store.invalidate(CHECKPOINT_ANALYSIS, self._checkpoint_key)

        self.stats.expansions = state.expansions
        self.stats.rounds = state.rounds
        limits = self._limits(state.nodes)
        accelerations = {
            node: tuple(sorted(used)) for node, used in state.accelerations.items()
        }
        return FrontierResult(
            nodes=state.nodes,
            limits=limits,
            accelerations=accelerations,
            group=self.group,
            stats=self.stats,
        )

    def _expand_round(self, state: _FrontierState, meter: Any, pool: Any = None) -> None:
        frontier = state.frontier
        chunk = default_chunk_size(len(frontier), self.jobs)
        ranges = chunk_ranges(len(frontier), chunk)
        payloads = [(self.indexed, frontier[start:stop]) for start, stop in ranges]
        results = run_tasks(
            _expand_entries, payloads, jobs=self.jobs, label="karp-miller", executor=pool
        )

        nodes = state.nodes
        visited = state.visited
        next_frontier: List[FrontierEntry] = []
        for envelope, (start, stop) in zip(results, ranges):
            for (config, ancestors), row in zip(frontier[start:stop], envelope.value):
                chain = ancestors + (config,)
                for successor, used, terminated in row:
                    nodes.add(successor)
                    if len(nodes) > self.node_budget:
                        raise SearchBudgetExceeded(
                            f"Karp-Miller construction exceeded {self.node_budget} nodes"
                        )
                    if used:
                        state.accelerations.setdefault(successor, set()).update(used)
                    if terminated:
                        continue
                    canon = canonical_config(successor, self.group)
                    if canon in visited:
                        self.stats.dedup_hits += 1
                        continue
                    visited.add(canon)
                    next_frontier.append((successor, chain))
                meter.tick()
        state.expansions += len(frontier)
        state.rounds += 1
        state.frontier = next_frontier

    def _limits(self, nodes: Set[ExtendedConfig]) -> Set[ExtendedConfig]:
        """Maximal elements of the orbit closure of the node set.

        With the trivial group this is the classic "maximal nodes"
        computation.  Otherwise the closure first restores the
        automorphic images the canonical dedup pruned, so the antichain
        is the same clover — bit-identical limits — the classic tree
        yields.
        """
        if len(self.group) > 1:
            closure: Set[ExtendedConfig] = set()
            for config in nodes:
                for perm in self.group:
                    closure.add(apply_permutation(perm, config))
        else:
            closure = nodes
        limits: Set[ExtendedConfig] = set()
        for candidate in closure:
            if not any(_leq(candidate, other) and candidate != other for other in closure):
                limits.add(candidate)
        return limits
