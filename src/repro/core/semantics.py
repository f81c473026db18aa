"""Operational semantics: firing, sequences, Parikh images, pseudo-firing.

This module implements the relations of Sections 2.2 and 5.1:

* the step relation ``C --t--> C'`` (fire an enabled transition);
* execution of transition *sequences* ``C --sigma--> C'``;
* Parikh mappings of sequences (multisets of transitions);
* the *pseudo-firing* relation ``C ==pi==> C'`` defined by
  ``C' = C + Delta_pi``, which ignores enabledness (Section 5.1);
* Lemma 5.1: consistency between the two, including the constructive
  direction — from a ``2|pi|``-saturated configuration every ordering
  of ``pi`` can actually be fired (:func:`realise_parikh`).

Monotonicity (``C -> C'`` implies ``C + D -> C' + D``) holds by
construction and is exercised heavily in the test suite.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import TransitionNotEnabled
from .multiset import Multiset
from .protocol import PopulationProtocol, Transition

__all__ = [
    "fire",
    "try_fire",
    "fire_sequence",
    "enabled_transitions",
    "successors",
    "parikh",
    "displacement_of",
    "pseudo_fire",
    "pseudo_reachable",
    "realise_parikh",
]


def fire(configuration: Multiset, transition: Transition) -> Multiset:
    """Fire an enabled transition: ``C' = C - p - q + p' + q'``.

    Raises
    ------
    TransitionNotEnabled
        If ``C >= p + q`` fails.
    """
    if not transition.enabled_in(configuration):
        raise TransitionNotEnabled(f"{transition} is not enabled in {configuration.pretty()}")
    return configuration + transition.displacement


def try_fire(configuration: Multiset, transition: Transition) -> Optional[Multiset]:
    """Like :func:`fire` but returns ``None`` when not enabled."""
    if not transition.enabled_in(configuration):
        return None
    return configuration + transition.displacement


def fire_sequence(configuration: Multiset, sequence: Iterable[Transition]) -> Multiset:
    """Fire a sequence ``sigma = t_1 t_2 ... t_k`` transition by transition.

    Implements ``C --sigma--> C'``; raises :class:`TransitionNotEnabled`
    at the first transition that is not enabled.
    """
    current = configuration
    for transition in sequence:
        current = fire(current, transition)
    return current


def enabled_transitions(protocol: PopulationProtocol, configuration: Multiset) -> List[Transition]:
    """All transitions of the protocol enabled in the configuration."""
    return [t for t in protocol.transitions if t.enabled_in(configuration)]


def successors(
    protocol: PopulationProtocol, configuration: Multiset
) -> List[Tuple[Transition, Multiset]]:
    """All one-step successors ``(t, C')`` with ``C --t--> C'``.

    Silent transitions (``C' = C``) are omitted; they are irrelevant
    for reachability and stability analyses.
    """
    result = []
    for t in protocol.transitions:
        if t.is_silent:
            continue
        nxt = try_fire(configuration, t)
        if nxt is not None:
            result.append((t, nxt))
    return result


def parikh(sequence: Iterable[Transition]) -> Multiset:
    """The Parikh mapping of a sequence: the multiset of its transitions."""
    return Multiset(list(sequence))


def displacement_of(pi: Multiset) -> Multiset:
    """``Delta_pi = sum_t pi(t) * Delta_t`` for a multiset of transitions.

    ``pi`` must map :class:`Transition` objects to natural counts.
    """
    # A plain dict, not a Multiset per term: this runs once per basis
    # element on every realisable-basis cache hit.
    total = {}
    for transition, count in pi.items():
        for state in (transition.p2, transition.q2):
            total[state] = total.get(state, 0) + count
        for state in (transition.p, transition.q):
            total[state] = total.get(state, 0) - count
    return Multiset(total)


def pseudo_fire(configuration: Multiset, pi: Multiset) -> Multiset:
    """``C ==pi==> C'`` with ``C' = C + Delta_pi`` (Section 5.1).

    No enabledness check whatsoever: the result may have negative
    entries, in which case ``pi`` was not even potentially realisable
    from ``C``.
    """
    return configuration + displacement_of(pi)


def pseudo_reachable(configuration: Multiset, pi: Multiset) -> bool:
    """True iff ``C + Delta_pi`` is a valid (natural) configuration."""
    return pseudo_fire(configuration, pi).is_natural


def realise_parikh(
    configuration: Multiset,
    pi: Multiset,
) -> List[Transition]:
    """Realise a pseudo-firing as an actual firing sequence (Lemma 5.1(ii)).

    If ``C`` is ``2|pi|``-saturated (over the states touched by the
    transitions of ``pi``) then *any* ordering of ``pi`` is fireable;
    this function fires one greedy ordering and returns it.  It
    actually succeeds under the weaker condition that a greedy order
    exists, so it may also be used opportunistically.

    Returns the sequence fired (its Parikh mapping equals ``pi``).

    Raises
    ------
    TransitionNotEnabled
        If no enabled transition with remaining budget exists at some
        point.  Cannot happen when the saturation hypothesis of
        Lemma 5.1(ii) holds.
    """
    remaining = dict(pi.items())
    sequence: List[Transition] = []
    current = configuration
    total = sum(remaining.values())
    for _ in range(total):
        progressed = False
        for transition, count in list(remaining.items()):
            if count <= 0:
                continue
            nxt = try_fire(current, transition)
            if nxt is not None:
                current = nxt
                sequence.append(transition)
                if count == 1:
                    del remaining[transition]
                else:
                    remaining[transition] = count - 1
                progressed = True
                break
        if not progressed:
            left = Multiset({t: c for t, c in remaining.items()})
            raise TransitionNotEnabled(
                f"cannot realise remaining Parikh multiset {left.pretty()} from {current.pretty()}"
            )
    return sequence
