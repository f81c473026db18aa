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

None of them searches on its own: each runs a protocol engine
(:class:`~repro.reachability.graph.ReachabilityGraph`, the
:class:`~repro.reachability.frontier.KarpMillerFrontier` behind
:func:`repro.reachability.coverability.karp_miller`) on the net's
dense view :class:`~repro.vas.model.IndexedNet`, which handles
arbitrary arities and non-conservative token counts (needed e.g. to
model the counter machines behind the §4.1 hardness results).
"""

from __future__ import annotations

from typing import Dict, Set, Union

from ..core.multiset import Multiset
from ..reachability import coverability
from ..reachability.coverability import OMEGA, KarpMillerTree
from ..reachability.graph import ReachabilityGraph
from .model import PetriNet

__all__ = [
    "OMEGA",
    "reachable_markings",
    "karp_miller",
    "is_coverable",
    "is_bounded",
    "place_bounds",
]


def reachable_markings(
    net: PetriNet,
    initial: Multiset,
    node_budget: int = 100_000,
) -> Set[Multiset]:
    """Exact forward closure of ``initial`` (budget-guarded).

    Raises :class:`~repro.core.errors.SearchBudgetExceeded` when more
    than ``node_budget`` markings are found — for unbounded nets this
    *will* happen; use :func:`karp_miller` to decide boundedness first.
    """
    indexed = net.indexed()
    graph = ReachabilityGraph.from_roots(indexed, [indexed.encode(initial)], node_budget)
    return {indexed.decode(node) for node in graph.nodes}


def karp_miller(
    net: PetriNet,
    initial: Multiset,
    node_budget: int = 200_000,
) -> KarpMillerTree:
    """Karp–Miller with omega-acceleration (the classic tree's limits).

    Each marking is expanded once: a branch stops on exact repetition
    of an ancestor or of a marking already queued for expansion (a net
    has no automorphism group, so there is no orbit to canonicalise).
    Acceleration compares against ancestors only (the sound variant —
    see the note in :mod:`repro.reachability.frontier`).  Raises
    :class:`~repro.core.errors.SearchBudgetExceeded` when more than
    ``node_budget`` tree nodes are created.

    The tree speaks the net's dense view: ``limits`` holds, and
    ``covers`` takes, count tuples in ``net.places`` order.  Ask
    marking queries through ``covers_multiset``, and read place bounds
    from ``limits`` or :func:`place_bounds`.
    """
    indexed = net.indexed()
    return coverability.karp_miller(indexed, [indexed.encode(initial)], node_budget)


def is_coverable(
    net: PetriNet,
    initial: Multiset,
    target: Multiset,
    node_budget: int = 200_000,
) -> bool:
    """Can some reachable marking dominate ``target``?"""
    return karp_miller(net, initial, node_budget=node_budget).covers_multiset(target)


def is_bounded(net: PetriNet, initial: Multiset, node_budget: int = 200_000) -> bool:
    """Is the reachability set finite (no omega in the coverability set)?"""
    return OMEGA not in place_bounds(net, initial, node_budget=node_budget).values()


def place_bounds(
    net: PetriNet,
    initial: Multiset,
    node_budget: int = 200_000,
) -> Dict[object, Union[int, float]]:
    """Per-place token bounds over the reachable set (``inf`` = unbounded)."""
    tree = karp_miller(net, initial, node_budget=node_budget)
    return {
        place: max(limit[i] for limit in tree.limits)
        for i, place in enumerate(net.places)
    }
