"""Petri nets / Vector Addition Systems: the paper's ambient theory.

Population protocols *are* Petri nets (a place per state, a net
transition per protocol transition, tokens are agents), and the
paper's toolbox — Rackoff coverability, Karp–Miller, the state
equation, the hardness results of §4.1 [15, 16, 22, 23] — is Petri net
theory.  This subpackage provides the general model, so the substrate
results can be exercised beyond the conservative two-in/two-out
special case:

* :class:`NetTransition` — arbitrary pre/post multisets over places
  (arity free; token count need not be conserved);
* :class:`PetriNet` — places + transitions, firing semantics on
  markings (multisets over places);
* :func:`from_protocol` — the adapter embedding a population protocol;
* :class:`IndexedNet` — the dense view (:meth:`PetriNet.indexed`) with
  the shape of :class:`~repro.core.protocol.IndexedProtocol`, so nets
  run on the protocol engines (reachability graph, Karp–Miller
  frontier, invariant kernel);
* classic structure tests: conservativity, the incidence matrix,
  pure-VAS shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from ..core.errors import ConfigurationError, ProtocolError, TransitionNotEnabled
from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol

__all__ = ["NetTransition", "PetriNet", "IndexedNet", "from_protocol"]

Place = Hashable


@dataclass(frozen=True)
class NetTransition:
    """A Petri net transition: consume ``pre``, produce ``post``."""

    name: str
    pre: Multiset
    post: Multiset

    def __post_init__(self) -> None:
        if not self.pre.is_natural or not self.post.is_natural:
            raise ProtocolError(f"transition {self.name}: pre/post must be natural multisets")

    @property
    def delta(self) -> Multiset:
        """The displacement ``post - pre``."""
        return self.post - self.pre

    def enabled_in(self, marking: Multiset) -> bool:
        """Is the transition enabled (``marking >= pre``)?"""
        return marking >= self.pre

    def fire(self, marking: Multiset) -> Multiset:
        """Fire the transition; raises when not enabled."""
        if not self.enabled_in(marking):
            raise TransitionNotEnabled(f"{self.name} not enabled in {marking.pretty()}")
        return marking - self.pre + self.post

    def __str__(self) -> str:
        return f"{self.name}: {self.pre.pretty()} -> {self.post.pretty()}"


@dataclass(frozen=True)
class PetriNet:
    """A Petri net ``(P, T)``; markings are multisets over ``P``."""

    places: Tuple[Place, ...]
    transitions: Tuple[NetTransition, ...]
    name: str = "net"

    def __post_init__(self) -> None:
        place_set = set(self.places)
        if len(place_set) != len(self.places):
            raise ProtocolError("places must be distinct")
        for t in self.transitions:
            touched = t.pre.support() | t.post.support()
            unknown = touched - place_set
            if unknown:
                raise ProtocolError(f"transition {t.name} touches unknown places {unknown}")

    # ------------------------------------------------------------------

    @property
    def num_places(self) -> int:
        """The number of places ``|P|``."""
        return len(self.places)

    @property
    def num_transitions(self) -> int:
        """The number of transitions ``|T|``."""
        return len(self.transitions)

    def indexed(self) -> "IndexedNet":
        """The dense integer-indexed view (cached on the net)."""
        cached = getattr(self, "_indexed_cache", None)
        if cached is None:
            cached = IndexedNet(self)
            object.__setattr__(self, "_indexed_cache", cached)
        return cached

    def enabled(self, marking: Multiset) -> List[NetTransition]:
        """All transitions enabled in the marking."""
        return [t for t in self.transitions if t.enabled_in(marking)]

    def successors(self, marking: Multiset) -> List[Tuple[NetTransition, Multiset]]:
        """All one-step successors (changing ones only)."""
        result = []
        for t in self.transitions:
            if t.enabled_in(marking) and not t.delta.is_zero:
                result.append((t, t.fire(marking)))
        return result

    def fire_sequence(self, marking: Multiset, names: Iterable[str]) -> Multiset:
        """Fire transitions by name; raises on disabled steps."""
        by_name = {t.name: t for t in self.transitions}
        current = marking
        for name in names:
            current = by_name[name].fire(current)
        return current

    # ------------------------------------------------------------------

    @property
    def is_conservative(self) -> bool:
        """Do all transitions preserve the token count?

        Population protocols always are; general nets need not be.
        """
        return all(t.pre.size == t.post.size for t in self.transitions)

    @property
    def is_ordinary(self) -> bool:
        """Are all arc weights 1 (each place at most once per side)?"""
        return all(
            all(c == 1 for c in t.pre.values()) and all(c == 1 for c in t.post.values())
            for t in self.transitions
        )

    def incidence_matrix(self) -> List[List[int]]:
        """Rows = places, columns = transitions; entries ``delta``."""
        return [[t.delta[p] for t in self.transitions] for p in self.places]

    def describe(self) -> str:
        """A readable multi-line description of the net."""
        lines = [
            f"net {self.name}: {self.num_places} places, {self.num_transitions} transitions",
            "  places: " + ", ".join(map(str, self.places)),
        ]
        lines.extend(f"  {t}" for t in self.transitions)
        return "\n".join(lines)


class IndexedNet:
    """A net's dense view: places ``0 .. n-1``, markings as count tuples.

    It carries exactly what the protocol engines read of an
    :class:`~repro.core.protocol.IndexedProtocol` — ``states`` (the
    places), ``index``, ``n``, one dense ``pres`` and ``deltas`` tuple
    per transition, the changing transitions ``non_silent``, and
    ``encode``/``decode``/``successors`` — with arbitrary arities.
    """

    def __init__(self, net: PetriNet):
        self.states: Tuple[Place, ...] = net.places
        self.index: Dict[Place, int] = {p: i for i, p in enumerate(self.states)}
        self.n = len(self.states)
        self.pres = tuple(self.encode(t.pre) for t in net.transitions)
        self.deltas = tuple(self.encode(t.delta) for t in net.transitions)
        self.non_silent = tuple(k for k, delta in enumerate(self.deltas) if any(delta))

    def encode(self, marking: Multiset) -> Tuple[int, ...]:
        """Dense count tuple of a marking; a place the net lacks is an error."""
        unknown = marking.support() - self.index.keys()
        if unknown:
            raise ConfigurationError(f"marking {marking.pretty()} has unknown places {unknown}")
        return marking.to_vector(self.states)

    def decode(self, counts: Sequence[int]) -> Multiset:
        """Inverse of :meth:`encode`."""
        return Multiset.from_vector(self.states, counts)

    def successors(self, counts: Tuple[int, ...]) -> List[Tuple[int, Tuple[int, ...]]]:
        """All ``(transition index, successor)`` pairs that change ``counts``."""
        return [
            (k, tuple(c + d for c, d in zip(counts, self.deltas[k])))
            for k in self.non_silent
            if all(p <= c for p, c in zip(self.pres[k], counts))
        ]


def from_protocol(protocol: PopulationProtocol) -> PetriNet:
    """The Petri net of a population protocol: a place per state.

    Every protocol transition ``p, q -> p', q'`` becomes the net
    transition consuming ``<p, q>`` and producing ``<p', q'>``; the net
    is conservative by construction (the embedding the paper uses when
    importing VAS results).
    """
    transitions = tuple(
        NetTransition(name=str(t), pre=t.pre, post=t.post)
        for t in protocol.transitions
    )
    return PetriNet(
        places=protocol.states,
        transitions=transitions,
        name=f"net({protocol.name})",
    )
