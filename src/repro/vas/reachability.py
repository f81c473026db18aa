"""Reachability and coverability for general Petri nets.

Unlike population protocols (token-conservative, hence finite
reachability per marking size), general nets can be unbounded; the
procedures here are the classical ones:

* :func:`reachable_markings` — exact forward exploration with a node
  budget (complete for bounded nets; budget-guarded otherwise);
* :func:`karp_miller` — the Karp–Miller tree with omega-acceleration:
  terminating, computes the coverability set's downward closure;
* :func:`is_coverable` / :func:`is_bounded` / :func:`place_bounds` —
  the standard decision procedures on top of it.

The protocol-specialised twins live in
:mod:`repro.reachability.coverability`; these net-level versions
handle arbitrary arities and non-conservative token counts (needed
e.g. to model the counter machines behind the §4.1 hardness results).
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple, Union

from ..core.errors import SearchBudgetExceeded
from ..core.multiset import Multiset
from .model import NetTransition, PetriNet

__all__ = [
    "OMEGA",
    "reachable_markings",
    "karp_miller",
    "is_coverable",
    "is_bounded",
    "place_bounds",
]

OMEGA = math.inf

ExtendedMarking = Tuple[Union[int, float], ...]


def _encode(net: PetriNet, marking: Multiset) -> Tuple[int, ...]:
    return tuple(marking[p] for p in net.places)


def reachable_markings(
    net: PetriNet,
    initial: Multiset,
    node_budget: int = 100_000,
) -> Set[Multiset]:
    """Exact forward closure of ``initial`` (budget-guarded BFS).

    Raises :class:`SearchBudgetExceeded` when the frontier exceeds the
    budget — for unbounded nets this *will* happen; use
    :func:`karp_miller` to decide boundedness first.
    """
    from collections import deque

    seen = {initial}
    queue = deque([initial])
    while queue:
        marking = queue.popleft()
        for _, successor in net.successors(marking):
            if successor not in seen:
                seen.add(successor)
                if len(seen) > node_budget:
                    raise SearchBudgetExceeded(
                        f"reachability exploration exceeded {node_budget} markings "
                        "(the net may be unbounded; try karp_miller)"
                    )
                queue.append(successor)
    return seen


class CoverabilityTree:
    """Result of the net-level Karp–Miller construction."""

    def __init__(self, net: PetriNet, limits: Set[ExtendedMarking]):
        self.net = net
        self.limits = limits

    def covers(self, target: Multiset) -> bool:
        """Is some reachable marking ``>= target``?"""
        dense = _encode(self.net, target)
        return any(all(t <= l for t, l in zip(dense, limit)) for limit in self.limits)

    def place_bound(self, place) -> Union[int, float]:
        """The supremum of the place's token count over reachable markings."""
        index = self.net.places.index(place)
        return max((limit[index] for limit in self.limits), default=0)


def karp_miller(
    net: PetriNet,
    initial: Multiset,
    node_budget: int = 200_000,
) -> CoverabilityTree:
    """Karp–Miller with omega-acceleration (classic tree semantics).

    Branches stop on exact repetition of an ancestor; acceleration
    compares against ancestors only (the sound variant — see the note
    in :mod:`repro.reachability.coverability`).
    """
    root: ExtendedMarking = _encode(net, initial)
    pres = [_encode(net, t.pre) for t in net.transitions]
    deltas = [tuple(t.delta[p] for p in net.places) for t in net.transitions]

    nodes: Set[ExtendedMarking] = {root}
    stack: List[Tuple[ExtendedMarking, Tuple[ExtendedMarking, ...]]] = [(root, ())]

    def accelerate(marking: ExtendedMarking, ancestors) -> ExtendedMarking:
        result = list(marking)
        for ancestor in ancestors:
            if all(a <= m for a, m in zip(ancestor, marking)) and ancestor != marking:
                for i in range(len(result)):
                    if ancestor[i] < marking[i]:
                        result[i] = OMEGA
        return tuple(result)

    while stack:
        marking, ancestors = stack.pop()
        if marking in ancestors:
            continue
        chain = ancestors + (marking,)
        for pre, delta in zip(pres, deltas):
            if not all(p <= m for p, m in zip(pre, marking)):
                continue
            if all(d == 0 for d in delta):
                continue
            successor = tuple(
                m if m == OMEGA else m + d for m, d in zip(marking, delta)
            )
            successor = accelerate(successor, chain)
            nodes.add(successor)
            if len(nodes) > node_budget:
                raise SearchBudgetExceeded(f"Karp-Miller exceeded {node_budget} nodes")
            stack.append((successor, chain))

    limits = {
        m for m in nodes
        if not any(m != other and all(a <= b for a, b in zip(m, other)) for other in nodes)
    }
    return CoverabilityTree(net, limits)


def is_coverable(
    net: PetriNet,
    initial: Multiset,
    target: Multiset,
    node_budget: int = 200_000,
) -> bool:
    """Can some reachable marking dominate ``target``?"""
    return karp_miller(net, initial, node_budget=node_budget).covers(target)


def is_bounded(net: PetriNet, initial: Multiset, node_budget: int = 200_000) -> bool:
    """Is the reachability set finite (no omega in the coverability set)?"""
    tree = karp_miller(net, initial, node_budget=node_budget)
    return all(all(x != OMEGA for x in limit) for limit in tree.limits)


def place_bounds(
    net: PetriNet,
    initial: Multiset,
    node_budget: int = 200_000,
) -> Dict[object, Union[int, float]]:
    """Per-place token bounds over the reachable set (``inf`` = unbounded)."""
    tree = karp_miller(net, initial, node_budget=node_budget)
    return {place: tree.place_bound(place) for place in net.places}
