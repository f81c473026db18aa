"""Stable configurations (Definition 2) and their exact computation.

A configuration ``C`` is *b-stable* if every configuration reachable
from ``C`` has output ``b``; ``SC_b`` is the set of b-stable
configurations and ``SC = SC_0 U SC_1``.  The paper's Section 3 builds
on two structural facts, both made executable here:

* ``SC_b`` is downward closed (Lemma 3.1) — verified empirically by
  :func:`check_downward_closure`;
* ``SC_b`` has a base of small norm (Lemma 3.2) — inferred and checked
  by :mod:`repro.analysis.basis`.

Definition 2 is decided three ways here: for one configuration
(:func:`stability_of`, one forward closure), for every node of a
forward-closed reachability graph (:func:`stable_verdicts`, one
backward closure per ``b``), and for a whole population size
(:func:`stable_slice`, the graph over every configuration of that size,
since transitions conserve agent count).  A node is b-stable iff it
cannot reach, inside the graph, a node whose output is not ``b``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..cache.decorator import cached_analysis
from ..core.multiset import Multiset
from ..core.protocol import IndexedProtocol, PopulationProtocol
from ..obs import get_tracer
from ..reachability.graph import ReachabilityGraph

__all__ = [
    "is_stable",
    "stability_of",
    "stable_verdicts",
    "stable_slice",
    "StableSlice",
    "check_downward_closure",
]

Config = Tuple[int, ...]


def stability_of(
    protocol: PopulationProtocol,
    configuration: Multiset,
    node_budget: int = 2_000_000,
) -> Optional[int]:
    """Return ``b`` if the configuration is b-stable, else ``None``.

    Exact: explores the forward closure of the configuration.
    """
    indexed = protocol.indexed()
    start = indexed.encode(configuration)
    graph = ReachabilityGraph.from_roots(protocol, [start], node_budget=node_budget)
    verdict = indexed.output_of(start)
    if verdict is None:
        return None
    for node in graph.nodes:
        if indexed.output_of(node) != verdict:
            return None
    return verdict


def is_stable(
    protocol: PopulationProtocol,
    configuration: Multiset,
    b: int,
    node_budget: int = 2_000_000,
) -> bool:
    """Is the configuration b-stable (Definition 2)?"""
    return stability_of(protocol, configuration, node_budget=node_budget) == b


def stable_verdicts(graph: ReachabilityGraph) -> Dict[Config, int]:
    """Map every b-stable node of a forward-closed graph to ``b``.

    ``graph`` must contain every successor of its nodes (both
    :meth:`~ReachabilityGraph.from_roots` and
    :meth:`~ReachabilityGraph.full_slice` graphs do), so reachability
    from a node stays inside it.  A node is not b-stable iff it can
    reach a node whose output is not ``b``: one backward closure per
    ``b``.  An empty node has no output and is never stable.
    """
    outputs = {config: graph.indexed.output_of(config) for config in graph.nodes}
    verdicts: Dict[Config, int] = {}
    for b in (0, 1):
        unstable = graph.backward_closure(c for c, out in outputs.items() if out != b)
        verdicts.update((c, b) for c in outputs if c not in unstable)
    return verdicts


class StableSlice:
    """The size-``m`` slice of ``SC_0``, ``SC_1`` and ``SC``.

    Built by :func:`stable_slice`.  Configurations are dense tuples;
    use :meth:`decode` / the ``*_multisets`` helpers for multisets.
    """

    def __init__(
        self,
        indexed: IndexedProtocol,
        size: int,
        stable0: FrozenSet[Config],
        stable1: FrozenSet[Config],
        all_configs: FrozenSet[Config],
    ):
        self.indexed = indexed
        self.size = size
        self.stable0 = stable0
        self.stable1 = stable1
        self.all_configs = all_configs

    @property
    def stable(self) -> FrozenSet[Config]:
        """The slice of ``SC = SC_0 U SC_1``."""
        return self.stable0 | self.stable1

    def membership(self, configuration: Multiset) -> Optional[int]:
        """``b`` when the configuration lies in this slice of ``SC_b``."""
        dense = self.indexed.encode(configuration)
        if dense in self.stable0:
            return 0
        if dense in self.stable1:
            return 1
        return None

    def decode(self, config: Config) -> Multiset:
        """Dense tuple back to a multiset over states."""
        return self.indexed.decode(config)

    def stable_multisets(self, b: int) -> List[Multiset]:
        """The slice of ``SC_b`` as multisets (sorted for determinism)."""
        source = self.stable0 if b == 0 else self.stable1
        return [self.indexed.decode(c) for c in sorted(source)]

    def __repr__(self) -> str:
        return (
            f"StableSlice(size={self.size}, |SC_0|={len(self.stable0)}, "
            f"|SC_1|={len(self.stable1)}, total={len(self.all_configs)})"
        )


def _slice_params(arguments):
    return {
        "size": int(arguments["size"]),
        "node_budget": int(arguments["node_budget"]),
    }


def _slice_encode(result: StableSlice, protocol: PopulationProtocol):
    dense = lambda configs: [list(c) for c in sorted(configs)]
    return {
        "size": result.size,
        "stable0": dense(result.stable0),
        "stable1": dense(result.stable1),
        "all": dense(result.all_configs),
    }


def _slice_decode(payload, protocol: PopulationProtocol) -> StableSlice:
    indexed = protocol.indexed()

    def configs(rows):
        decoded = frozenset(tuple(int(c) for c in row) for row in rows)
        for config in decoded:
            if len(config) != indexed.n:
                raise ValueError("configuration width does not match the protocol")
        return decoded

    return StableSlice(
        indexed=indexed,
        size=int(payload["size"]),
        stable0=configs(payload["stable0"]),
        stable1=configs(payload["stable1"]),
        all_configs=configs(payload["all"]),
    )


@cached_analysis(
    "stable.slice",
    params=_slice_params,
    encode=_slice_encode,
    decode=_slice_decode,
)
def stable_slice(
    protocol: PopulationProtocol,
    size: int,
    node_budget: int = 2_000_000,
) -> StableSlice:
    """Compute the size-``size`` slices of ``SC_0`` and ``SC_1`` exactly.

    :func:`stable_verdicts` over the graph of every configuration of
    that size.  Raises ``ValueError`` for ``size < 1``: a configuration
    has at least one agent.  Memoised through :mod:`repro.cache` when
    the active store is on.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    indexed = protocol.indexed()
    with get_tracer().span(
        "stable.slice", size=size, states=indexed.n, protocol=protocol.name
    ) as span:
        graph = ReachabilityGraph.full_slice(protocol, size, node_budget=node_budget)
        verdicts = stable_verdicts(graph)
        stable0 = frozenset(c for c, b in verdicts.items() if b == 0)
        stable1 = frozenset(c for c, b in verdicts.items() if b == 1)
        all_configs = frozenset(graph.nodes)
        span.add("configurations", len(all_configs))
        span.add("stable0", len(stable0))
        span.add("stable1", len(stable1))
    return StableSlice(
        indexed=indexed,
        size=size,
        stable0=stable0,
        stable1=stable1,
        all_configs=all_configs,
    )


def check_downward_closure(
    protocol: PopulationProtocol,
    max_size: int,
    b: int,
    min_size: int = 2,
    node_budget: int = 2_000_000,
) -> Optional[Tuple[Multiset, Multiset]]:
    """Empirically check Lemma 3.1 on all slices up to ``max_size``.

    Returns ``None`` when downward closure holds (as it must); if a
    violating pair ``C' <= C`` with ``C`` stable but ``C'`` not is ever
    found, it is returned — that would falsify Lemma 3.1 (or reveal a
    bug in the slice computation; the property tests rely on this).

    Only pairs whose smaller member still has size >= ``min_size`` are
    considered (configurations need two agents).
    """
    slices = {m: stable_slice(protocol, m, node_budget=node_budget) for m in range(min_size, max_size + 1)}
    indexed = protocol.indexed()
    for m in range(min_size, max_size + 1):
        sl = slices[m]
        stable_sets = {0: sl.stable0, 1: sl.stable1}
        for config in stable_sets[b]:
            # remove one agent in every possible way
            for i, count in enumerate(config):
                if count == 0:
                    continue
                smaller = tuple(c - 1 if j == i else c for j, c in enumerate(config))
                if sum(smaller) < min_size:
                    continue
                smaller_slice = slices[m - 1]
                smaller_set = smaller_slice.stable0 if b == 0 else smaller_slice.stable1
                if smaller not in smaller_set:
                    return indexed.decode(smaller), indexed.decode(config)
    return None
