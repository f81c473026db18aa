"""Exact reachability graphs for a fixed population size.

Population protocol transitions conserve the number of agents, so for
any initial configuration the set of reachable configurations is
finite: a subset of the compositions of ``|C|`` into ``|Q|`` parts.
This module explores that space exactly:

* :func:`enumerate_configurations` — all dense configurations of a
  given size (the full slice of ``N^Q``);
* :class:`ReachabilityGraph` — forward closure from a set of roots, or
  the full slice, with successor/predecessor queries, Tarjan SCC
  decomposition, bottom SCCs and backward closures;
* :func:`path_transitions` — the one step-by-step check of a path.

The graph is the engine behind the exact notions the paper uses:
fair executions settle in *bottom* SCCs, ``b``-stability is
"cannot reach a non-``b``-consensus", and verification of a protocol
on an input reduces to consensus checks on bottom SCCs.

All graph nodes are dense count tuples produced by
:class:`~repro.core.protocol.IndexedProtocol`; translate with its
``encode``/``decode`` when interfacing with :class:`Multiset` code.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.errors import ReproError, SearchBudgetExceeded
from ..core.protocol import IndexedProtocol, PopulationProtocol, Transition

__all__ = ["enumerate_configurations", "ReachabilityGraph", "count_configurations", "path_transitions"]

Config = Tuple[int, ...]

DEFAULT_NODE_BUDGET = 2_000_000


def count_configurations(num_states: int, size: int) -> int:
    """Number of configurations of ``size`` agents over ``num_states`` states.

    This is the composition count ``C(size + n - 1, n - 1)`` — useful to
    check feasibility before asking for a full slice.
    """
    from math import comb

    return comb(size + num_states - 1, num_states - 1)


def enumerate_configurations(num_states: int, size: int) -> Iterator[Config]:
    """Yield every dense configuration of ``size`` agents over ``num_states`` states.

    Configurations are yielded in lexicographic order of their count
    tuples.  The number of results is :func:`count_configurations`.
    """
    if num_states <= 0:
        if size == 0:
            yield ()
        return

    def rec(prefix: List[int], remaining_states: int, remaining: int) -> Iterator[Config]:
        if remaining_states == 1:
            yield tuple(prefix + [remaining])
            return
        for here in range(remaining + 1):
            yield from rec(prefix + [here], remaining_states - 1, remaining - here)

    yield from rec([], num_states, size)


class ReachabilityGraph:
    """An explicit reachability graph over dense configurations.

    Use :meth:`from_roots` for the forward closure of initial
    configurations (what verification needs) or :meth:`full_slice` for
    every configuration of a size (what stable-set computation needs).
    """

    def __init__(self, indexed: IndexedProtocol):
        self.indexed = indexed
        self.nodes: Set[Config] = set()
        self.edges: Dict[Config, Tuple[Config, ...]] = {}
        self._reverse: Optional[Dict[Config, List[Config]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_roots(
        cls,
        protocol: PopulationProtocol,
        roots: Iterable[Config],
        node_budget: int = DEFAULT_NODE_BUDGET,
    ) -> "ReachabilityGraph":
        """Forward closure of ``roots`` under the step relation.

        Raises :class:`SearchBudgetExceeded` if more than ``node_budget``
        configurations are discovered.
        """
        indexed = protocol.indexed() if isinstance(protocol, PopulationProtocol) else protocol
        graph = cls(indexed)
        queue: deque = deque()
        for root in roots:
            root = tuple(root)
            if root not in graph.nodes:
                graph.nodes.add(root)
                queue.append(root)
        while queue:
            node = queue.popleft()
            succ = []
            for _, nxt in indexed.successors(node):
                succ.append(nxt)
                if nxt not in graph.nodes:
                    graph.nodes.add(nxt)
                    if len(graph.nodes) > node_budget:
                        raise SearchBudgetExceeded(
                            f"reachability exploration exceeded {node_budget} configurations"
                        )
                    queue.append(nxt)
            graph.edges[node] = tuple(dict.fromkeys(succ))
        return graph

    @classmethod
    def full_slice(
        cls,
        protocol: PopulationProtocol,
        size: int,
        node_budget: int = DEFAULT_NODE_BUDGET,
    ) -> "ReachabilityGraph":
        """The graph over *all* configurations of the given size."""
        indexed = protocol.indexed() if isinstance(protocol, PopulationProtocol) else protocol
        total = count_configurations(indexed.n, size)
        if total > node_budget:
            raise SearchBudgetExceeded(
                f"slice of size {size} has {total} configurations, budget is {node_budget}"
            )
        graph = cls(indexed)
        for config in enumerate_configurations(indexed.n, size):
            graph.nodes.add(config)
        for config in graph.nodes:
            succ = [nxt for _, nxt in indexed.successors(config)]
            graph.edges[config] = tuple(dict.fromkeys(succ))
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, config: Config) -> bool:
        return tuple(config) in self.nodes

    def successors_of(self, config: Config) -> Tuple[Config, ...]:
        """Distinct one-step successors (silent self-loops omitted)."""
        return self.edges.get(tuple(config), ())

    def predecessors_of(self, config: Config) -> Tuple[Config, ...]:
        """Distinct one-step predecessors within the explored graph."""
        if self._reverse is None:
            rev: Dict[Config, List[Config]] = {node: [] for node in self.nodes}
            for src, targets in self.edges.items():
                for dst in targets:
                    rev[dst].append(src)
            self._reverse = rev
        return tuple(self._reverse.get(tuple(config), ()))

    def forward_closure(self, sources: Iterable[Config]) -> Set[Config]:
        """All configurations reachable from ``sources`` inside the graph."""
        seen: Set[Config] = set()
        queue = deque(tuple(s) for s in sources if tuple(s) in self.nodes)
        seen.update(queue)
        while queue:
            node = queue.popleft()
            for nxt in self.edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def backward_closure(self, targets: Iterable[Config]) -> Set[Config]:
        """All configurations that can reach ``targets`` inside the graph."""
        if not self.nodes:
            return set()
        self.predecessors_of(next(iter(self.nodes)))  # force reverse index
        assert self._reverse is not None
        seen: Set[Config] = set()
        queue = deque(tuple(t) for t in targets if tuple(t) in self.nodes)
        seen.update(queue)
        while queue:
            node = queue.popleft()
            for prev in self._reverse.get(node, ()):
                if prev not in seen:
                    seen.add(prev)
                    queue.append(prev)
        return seen

    def can_reach(self, source: Config, predicate: Callable[[Config], bool]) -> Optional[Config]:
        """First configuration reachable from ``source`` satisfying ``predicate``.

        Returns ``None`` if no reachable configuration satisfies it.
        """
        source = tuple(source)
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if predicate(node):
                return node
            for nxt in self.edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return None

    def shortest_path(self, source: Config, target: Config) -> Optional[List[Config]]:
        """A shortest configuration path from ``source`` to ``target``."""
        source, target = tuple(source), tuple(target)
        if source not in self.nodes:
            return None
        parent: Dict[Config, Optional[Config]] = {source: None}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if node == target:
                path = [node]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])  # type: ignore[arg-type]
                return list(reversed(path))
            for nxt in self.edges.get(node, ()):
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        return None

    # ------------------------------------------------------------------
    # Strongly connected components
    # ------------------------------------------------------------------

    def sccs(self) -> List[List[Config]]:
        """Strongly connected components (iterative Tarjan).

        Returned in reverse topological order (every SCC appears before
        any SCC that can reach it), which makes bottom SCCs the ones
        found first among their descendants.
        """
        index_of: Dict[Config, int] = {}
        lowlink: Dict[Config, int] = {}
        on_stack: Set[Config] = set()
        stack: List[Config] = []
        result: List[List[Config]] = []
        counter = 0

        for start in self.nodes:
            if start in index_of:
                continue
            work: List[Tuple[Config, int]] = [(start, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    index_of[node] = counter
                    lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = self.edges.get(node, ())
                for i in range(child_index, len(children)):
                    child = children[i]
                    if child not in index_of:
                        work.append((node, i + 1))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[child])
                if recurse:
                    continue
                if lowlink[node] == index_of[node]:
                    component: List[Config] = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        component.append(top)
                        if top == node:
                            break
                    result.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return result

    def bottom_sccs(self) -> List[List[Config]]:
        """SCCs with no edge leaving them — where fair executions settle.

        A fair execution visits every configuration of some bottom SCC
        infinitely often, so the protocol's verdict on an input is
        exactly the common consensus of the bottom SCCs reachable from
        its initial configuration (or no verdict, if one of them is not
        a consensus).
        """
        bottoms = []
        for component in self.sccs():
            members = set(component)
            is_bottom = True
            for node in component:
                for nxt in self.edges.get(node, ()):
                    if nxt not in members:
                        is_bottom = False
                        break
                if not is_bottom:
                    break
            if is_bottom:
                bottoms.append(component)
        return bottoms


def path_transitions(indexed: IndexedProtocol, path: Sequence[Config]) -> Tuple[Transition, ...]:
    """The transition each step of a configuration path fires.

    Raises :class:`ReproError` at the first step no transition connects.
    """
    transitions: List[Transition] = []
    for current, nxt in zip(path, path[1:]):
        for k, succ in indexed.successors(current):
            if succ == nxt:
                transitions.append(indexed.protocol.transitions[k])
                break
        else:
            raise ReproError(f"no transition connects {current} -> {nxt}")
    return tuple(transitions)
