"""Protocol symmetry: the canonical state order and the automorphisms.

The paper's bounds count states, so a protocol matters only up to
renaming them.  Every "same up to renaming" question in the package is
answered here, by one search:

* **Colour refinement** gives every state a colour that is invariant
  under renaming: outputs, leader counts and input variables seed the
  colours, and transition-role signatures refine them until the classes
  stop splitting.
* **The class-respecting search** tries every ordering that lists the
  colour classes in colour order and permutes states only within their
  class.  One pass keeps two answers: the minimum structural signature
  (the *canonical form*) and the orderings that reproduce the
  protocol's own signature (the *automorphisms*).

Colours are isomorphism-invariant and every automorphism preserves
them, so both answers are exact.  The search is refused above
:data:`MAX_CANDIDATES` orderings.  Colour refinement alone gives every
state its own class on the shipped families (compiled predicates of
hundreds of states included), so only hand-built protocols with many
interchangeable states reach the limit.

The result is memoised on the protocol instance.  Its consumers are
the cache fingerprint (:func:`repro.cache.fingerprint.canonical_form`),
the Karp–Miller engine's canonical dedup, which runs on every tree
(:func:`repro.reachability.frontier.configuration_symmetries`), and the
public :func:`canonical_key`, :func:`are_isomorphic` and
:func:`automorphisms`, which :mod:`repro.analysis` re-exports.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Hashable, List, NamedTuple, Optional, Tuple

from .core.protocol import PopulationProtocol

__all__ = [
    "MAX_CANDIDATES",
    "Symmetry",
    "are_isomorphic",
    "automorphisms",
    "canonical_key",
    "search",
]

MAX_CANDIDATES = 40_320
"""8!: the most class-respecting orderings one search tries."""

State = Hashable
Signature = Tuple[Any, ...]


class Symmetry(NamedTuple):
    """The two answers of one class-respecting search."""

    canonical: Signature
    """The minimum :func:`_encode_order` signature over the orderings."""
    automorphisms: Tuple[Dict[State, State], ...]
    """Every renaming that maps the protocol onto itself, identity first."""


def _rank(values: Dict[Hashable, Any]) -> Dict[Hashable, int]:
    """Replace comparable colour values by their dense sorted ranks."""
    order = {value: rank for rank, value in enumerate(sorted(set(values.values())))}
    return {key: order[value] for key, value in values.items()}


def _refined_colors(protocol: PopulationProtocol) -> Dict[Hashable, int]:
    """Stable colouring of the states, invariant under renaming.

    Seed colour: ``(output, leader count, sorted input variables)``.
    Refinement: each round appends, per state, the sorted multiset of
    its transition roles ``(pre colours, post colours, occurrences of
    the state in pre, in post)``.  Colour classes only ever split, so
    the loop stops as soon as the class count stops growing.
    """
    variables_of: Dict[Hashable, List[str]] = {s: [] for s in protocol.states}
    for variable, target in protocol.input_mapping.items():
        variables_of[target].append(str(variable))
    seed = {
        s: (protocol.output[s], protocol.leaders[s], tuple(sorted(variables_of[s])))
        for s in protocol.states
    }
    # Each transition touches at most four states; iterating incident
    # transitions per state keeps a refinement round at O(|T|), not
    # O(|Q| * |T|) (the difference is minutes on compiled protocols).
    incident: Dict[Hashable, List[Tuple[Any, int, int]]] = {s: [] for s in protocol.states}
    for t in protocol.transitions:
        for s in {t.p, t.q, t.p2, t.q2}:
            s_pre = (t.p == s) + (t.q == s)
            s_post = (t.p2 == s) + (t.q2 == s)
            incident[s].append((t, s_pre, s_post))
    colors = _rank(seed)
    while True:
        signatures: Dict[Hashable, Any] = {}
        for s in protocol.states:
            roles = []
            for t, s_pre, s_post in incident[s]:
                pre = tuple(sorted((colors[t.p], colors[t.q])))
                post = tuple(sorted((colors[t.p2], colors[t.q2])))
                roles.append((pre, post, s_pre, s_post))
            signatures[s] = (colors[s], tuple(sorted(roles)))
        refined = _rank(signatures)
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined


def _encode_order(
    protocol: PopulationProtocol, order: Tuple[Hashable, ...]
) -> Signature:
    """The comparable signature of one candidate state ordering."""
    index = {s: i for i, s in enumerate(order)}
    outputs = tuple(protocol.output[s] for s in order)
    leaders = tuple(protocol.leaders[s] for s in order)
    inputs = tuple(sorted((str(v), index[s]) for v, s in protocol.input_mapping.items()))
    transitions = tuple(
        sorted(
            (
                tuple(sorted((index[t.p], index[t.q]))),
                tuple(sorted((index[t.p2], index[t.q2]))),
            )
            for t in protocol.transitions
        )
    )
    return (outputs, leaders, inputs, transitions)


def _class_search(protocol: PopulationProtocol) -> Optional[Symmetry]:
    colors = _refined_colors(protocol)
    classes: Dict[int, List[State]] = {}
    for s in protocol.states:
        classes.setdefault(colors[s], []).append(s)
    ordered_classes = [classes[color] for color in sorted(classes)]
    candidates = 1
    for members in ordered_classes:
        candidates *= math.factorial(len(members))
        if candidates > MAX_CANDIDATES:
            return None

    first: Tuple[State, ...] = ()
    own: Optional[Signature] = None
    best: Optional[Signature] = None
    found: List[Dict[State, State]] = []
    # The first ordering keeps every class in presentation order, and
    # its signature is the protocol's own: an ordering that reproduces
    # it is the automorphism renaming order[i] to first[i].
    for combo in itertools.product(
        *(itertools.permutations(members) for members in ordered_classes)
    ):
        order = tuple(s for group in combo for s in group)
        signature = _encode_order(protocol, order)
        if own is None:
            first, own = order, signature
        if signature == own:
            found.append(dict(zip(order, first)))
        if best is None or signature < best:
            best = signature
    assert best is not None  # protocols have >= 1 state
    return Symmetry(best, tuple(found))


_UNSEARCHED = object()


def search(protocol: PopulationProtocol) -> Optional[Symmetry]:
    """The canonical form and the automorphisms, or ``None`` above the limit.

    ``None`` means the colour classes leave more than
    :data:`MAX_CANDIDATES` orderings.  Memoised on the protocol
    instance, so each protocol is refined and searched once.
    """
    cached = getattr(protocol, "_symmetry_cache", _UNSEARCHED)
    if cached is _UNSEARCHED:
        cached = _class_search(protocol)
        object.__setattr__(protocol, "_symmetry_cache", cached)
    return cached


def _searched(protocol: PopulationProtocol) -> Symmetry:
    found = search(protocol)
    if found is None:
        raise ValueError(
            f"the {protocol.num_states} states of {protocol.name} leave more than "
            f"{MAX_CANDIDATES} class-respecting orderings; too many to search"
        )
    return found


def canonical_key(protocol: PopulationProtocol) -> Signature:
    """A hashable canonical form: equal iff the protocols are isomorphic.

    The minimum structural signature over the class-respecting state
    orderings.  Input variable *names* are part of the structure (two
    protocols over different variables are not identified).  Raises
    :class:`ValueError` above :data:`MAX_CANDIDATES` orderings.
    """
    return _searched(protocol).canonical


def are_isomorphic(left: PopulationProtocol, right: PopulationProtocol) -> bool:
    """Is there a state bijection carrying ``left`` onto ``right``?"""
    if left.num_states != right.num_states:
        return False
    if left.num_transitions != right.num_transitions:
        return False
    return canonical_key(left) == canonical_key(right)


def automorphisms(protocol: PopulationProtocol) -> List[Dict[State, State]]:
    """All state renamings mapping the protocol onto itself.

    The identity comes first; a non-trivial automorphism certifies
    behaviourally interchangeable states.  Raises :class:`ValueError`
    above :data:`MAX_CANDIDATES` orderings.
    """
    return list(_searched(protocol).automorphisms)
