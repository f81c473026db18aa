"""The population protocol model of Section 2.2.

A population protocol is a tuple ``P = (Q, T, L, X, I, O)`` where

* ``Q`` is a finite set of states,
* ``T`` is a set of transitions between unordered pairs of states,
* ``L`` is the leader multiset (``L = 0`` for leaderless protocols),
* ``X`` is a finite set of input variables,
* ``I : X -> Q`` is the input mapping, and
* ``O : Q -> {0, 1}`` is the output mapping.

This module provides :class:`Transition` and :class:`PopulationProtocol`
(the user-facing, validated model) plus :class:`IndexedProtocol`, a
dense integer-indexed view used by the exhaustive-analysis and
simulation code for speed.

The paper assumes that *every* unordered pair of states enables at
least one transition.  Protocols are often more naturally written with
only their "interesting" transitions; :meth:`PopulationProtocol.completed`
adds the missing identity transitions ``p, q -> p, q`` so that the
formal assumption holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import ConfigurationError, ProtocolError
from .multiset import EMPTY, Multiset

__all__ = ["Transition", "PopulationProtocol", "IndexedProtocol"]

State = Hashable
Variable = Hashable


def _pair(a: State, b: State) -> Tuple[State, State]:
    """Canonical ordering of an unordered pair (for hashing/display)."""
    return (a, b) if str(a) <= str(b) else (b, a)


@dataclass(frozen=True)
class Transition:
    """A transition ``p, q -> p', q'`` between multisets of size two.

    Both the precondition and the postcondition are *unordered* pairs;
    two transitions are equal iff their unordered pre and post pairs
    coincide.  ``Transition("a", "b", "c", "d")`` denotes
    ``a, b -> c, d``.
    """

    p: State
    q: State
    p2: State
    q2: State

    def __post_init__(self) -> None:
        a, b = _pair(self.p, self.q)
        c, d = _pair(self.p2, self.q2)
        object.__setattr__(self, "p", a)
        object.__setattr__(self, "q", b)
        object.__setattr__(self, "p2", c)
        object.__setattr__(self, "q2", d)

    @property
    def pre(self) -> Multiset:
        """The precondition ``<p, q>`` as a multiset of size 2."""
        return Multiset([self.p, self.q])

    @property
    def post(self) -> Multiset:
        """The postcondition ``<p', q'>`` as a multiset of size 2."""
        return Multiset([self.p2, self.q2])

    @property
    def displacement(self) -> Multiset:
        """``Delta_t = p' + q' - p - q`` (Section 5.1).

        The displacement lives in ``{-2, ..., 2}^Q`` and describes the
        net change in the number of agents per state caused by firing.
        """
        return self.post - self.pre

    @property
    def is_silent(self) -> bool:
        """True iff the transition does not change the configuration."""
        return self.pre == self.post

    def enabled_in(self, configuration: Multiset) -> bool:
        """True iff ``C >= p + q``: the two required agents are present."""
        return configuration >= self.pre

    def states(self) -> FrozenSet[State]:
        """All states mentioned by the transition."""
        return frozenset((self.p, self.q, self.p2, self.q2))

    def __str__(self) -> str:
        return f"{self.p}, {self.q} -> {self.p2}, {self.q2}"


@dataclass(frozen=True)
class PopulationProtocol:
    """A population protocol ``(Q, T, L, X, I, O)``.

    Parameters
    ----------
    states:
        The finite set ``Q``.  Order is preserved (it fixes the dense
        indexing used by :class:`IndexedProtocol`).
    transitions:
        The set ``T``.  Duplicates are removed; order is preserved.
    leaders:
        The leader multiset ``L`` over ``Q`` (default: leaderless).
    input_mapping:
        The mapping ``I : X -> Q``; its key set is the input alphabet
        ``X``.  For single-variable protocols use ``{"x": some_state}``.
    output:
        The mapping ``O : Q -> {0, 1}``; every state needs an output.
    name:
        Optional human-readable identifier used in reports.

    Raises
    ------
    ProtocolError
        If any component refers to unknown states, an output is missing
        or not in {0, 1}, or the leader multiset is not natural.
    """

    states: Tuple[State, ...]
    transitions: Tuple[Transition, ...]
    leaders: Multiset = field(default_factory=Multiset)
    input_mapping: Mapping[Variable, State] = field(default_factory=dict)
    output: Mapping[State, int] = field(default_factory=dict)
    name: str = "protocol"

    def __post_init__(self) -> None:
        states = tuple(dict.fromkeys(self.states))  # dedupe, keep order
        object.__setattr__(self, "states", states)
        # Pairs are ordered by name (`_pair`), so two states with one
        # name would make an unordered pair ambiguous.
        names: Dict[str, State] = {}
        for state in states:
            first = names.setdefault(str(state), state)
            if first is not state:
                raise ProtocolError(f"states {first!r} and {state!r} share the name {str(state)!r}")
        state_set = set(states)
        seen: Dict[Transition, None] = {}
        for t in self.transitions:
            if not t.states() <= state_set:
                raise ProtocolError(f"transition {t} mentions unknown states {t.states() - state_set}")
            seen.setdefault(t)
        object.__setattr__(self, "transitions", tuple(seen))
        if not isinstance(self.leaders, Multiset):
            object.__setattr__(self, "leaders", Multiset(self.leaders))
        if not self.leaders.is_natural:
            raise ProtocolError("leader multiset must have non-negative multiplicities")
        if not self.leaders.supported_on(state_set):
            raise ProtocolError("leader multiset mentions unknown states")
        object.__setattr__(self, "input_mapping", dict(self.input_mapping))
        for var, target in self.input_mapping.items():
            if target not in state_set:
                raise ProtocolError(f"input variable {var!r} maps to unknown state {target!r}")
        object.__setattr__(self, "output", dict(self.output))
        for state in states:
            if state not in self.output:
                raise ProtocolError(f"state {state!r} has no output value")
            if self.output[state] not in (0, 1):
                raise ProtocolError(f"output of {state!r} must be 0 or 1, got {self.output[state]!r}")
        extra = set(self.output) - state_set
        if extra:
            raise ProtocolError(f"output mapping mentions unknown states {extra}")

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        """``n = |Q|`` — the quantity all of the paper's bounds are in."""
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        """The number of transitions ``|T|``."""
        return len(self.transitions)

    @property
    def is_leaderless(self) -> bool:
        """True iff ``L = 0`` (Section 2.2, "Leaderless protocols")."""
        return self.leaders.is_zero

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """The input alphabet ``X``."""
        return tuple(self.input_mapping)

    def transitions_from(self, p: State, q: State) -> Tuple[Transition, ...]:
        """All transitions whose precondition is the unordered pair ``<p, q>``."""
        a, b = _pair(p, q)
        return tuple(t for t in self.transitions if (t.p, t.q) == (a, b))

    @property
    def is_complete(self) -> bool:
        """True iff every unordered pair of states enables some transition.

        The paper assumes completeness throughout (it guarantees that
        every configuration of size >= 2 enables a transition).
        """
        covered = {(t.p, t.q) for t in self.transitions}
        for a, b in itertools.combinations_with_replacement(self.states, 2):
            if _pair(a, b) not in covered:
                return False
        return True

    @property
    def is_deterministic(self) -> bool:
        """True iff every unordered pair enables at most one transition.

        Determinism matters for the Pottier constant: Remark 1 of the
        paper allows the smaller constant ``xi = 2(|Q|+2)^|Q|`` for
        deterministic protocols.
        """
        covered = set()
        for t in self.transitions:
            key = (t.p, t.q)
            if key in covered:
                return False
            covered.add(key)
        return True

    def completed(self) -> "PopulationProtocol":
        """A protocol equal to this one plus identity transitions.

        For every unordered pair ``<p, q>`` with no transition, the
        silent transition ``p, q -> p, q`` is added.  The result is
        semantically equivalent (silent transitions do not change any
        configuration) and satisfies the paper's completeness
        assumption.
        """
        covered = {(t.p, t.q) for t in self.transitions}
        extra: List[Transition] = []
        for a, b in itertools.combinations_with_replacement(self.states, 2):
            if _pair(a, b) not in covered:
                extra.append(Transition(a, b, a, b))
        if not extra:
            return self
        return PopulationProtocol(
            states=self.states,
            transitions=self.transitions + tuple(extra),
            leaders=self.leaders,
            input_mapping=self.input_mapping,
            output=self.output,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Initial configurations
    # ------------------------------------------------------------------

    def initial_configuration(self, inputs: Union[int, Mapping[Variable, int], Multiset]) -> Multiset:
        """``IC(m) = L + sum_x m(x) * I(x)``.

        For protocols with a unique input variable ``x`` an integer
        ``i`` abbreviates the input ``i * x`` (the paper's ``IC(i)``).

        Raises
        ------
        ConfigurationError
            If the input uses unknown variables, has negative
            multiplicities, or yields a population of fewer than two
            agents (inputs must satisfy ``|m| >= 2`` minus leaders).
        """
        if isinstance(inputs, int):
            if len(self.input_mapping) != 1:
                raise ConfigurationError(
                    f"integer input requires a unique input variable, protocol has {len(self.input_mapping)}"
                )
            (var,) = self.input_mapping
            inputs = Multiset({var: inputs})
        elif not isinstance(inputs, Multiset):
            inputs = Multiset(dict(inputs))
        if not inputs.is_natural:
            raise ConfigurationError(f"input multiset must be natural, got {inputs!r}")
        unknown = inputs.support() - set(self.input_mapping)
        if unknown:
            raise ConfigurationError(f"unknown input variables {unknown}")
        config = self.leaders
        for var, count in inputs.items():
            config = config + Multiset.singleton(self.input_mapping[var], count)
        if config.size < 2:
            raise ConfigurationError(
                f"initial configuration must contain at least two agents, got {config.size}"
            )
        return config

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------

    def output_of(self, configuration: Multiset) -> Optional[int]:
        """The output ``O(C)``: ``b`` if all populated states output ``b``.

        Returns ``None`` when the configuration is not a consensus
        (the paper's "undefined").
        """
        result: Optional[int] = None
        for state in configuration.support():
            b = self.output[state]
            if result is None:
                result = b
            elif result != b:
                return None
        return result

    def states_with_output(self, b: int) -> Tuple[State, ...]:
        """All states ``q`` with ``O(q) = b``."""
        return tuple(q for q in self.states if self.output[q] == b)

    # ------------------------------------------------------------------
    # Derived views and renaming
    # ------------------------------------------------------------------

    def indexed(self) -> "IndexedProtocol":
        """The dense integer-indexed view (cached on the protocol)."""
        cached = getattr(self, "_indexed_cache", None)
        if cached is None:
            cached = IndexedProtocol(self)
            object.__setattr__(self, "_indexed_cache", cached)
        return cached

    def coverable_states(self) -> FrozenSet[State]:
        """States that can be populated from *some* initial configuration.

        Support-level forward closure: start from the leader support
        and the input states, repeatedly add the posts of transitions
        whose pre lies inside the set.  The paper assumes (wlog) that
        every state is coverable; :meth:`restricted_to_coverable`
        realises the "wlog".
        """
        covered = set(self.leaders.support())
        covered.update(self.input_mapping.values())
        changed = True
        while changed:
            changed = False
            for t in self.transitions:
                if t.p in covered and t.q in covered:
                    for produced in (t.p2, t.q2):
                        if produced not in covered:
                            covered.add(produced)
                            changed = True
        return frozenset(covered)

    def restricted_to_coverable(self) -> "PopulationProtocol":
        """The semantically equivalent protocol on coverable states only.

        Uncoverable states are never populated from any initial
        configuration, so dropping them (and every transition touching
        them) preserves the computed predicate.  Returns ``self`` when
        all states are coverable.
        """
        covered = self.coverable_states()
        if len(covered) == len(self.states):
            return self
        return PopulationProtocol(
            states=tuple(s for s in self.states if s in covered),
            transitions=tuple(t for t in self.transitions if t.states() <= covered),
            leaders=self.leaders,
            input_mapping=self.input_mapping,
            output={s: b for s, b in self.output.items() if s in covered},
            name=f"{self.name} (coverable)",
        )

    def renamed(self, mapping: Mapping[State, State], name: Optional[str] = None) -> "PopulationProtocol":
        """A copy with states renamed by an injective ``mapping``."""
        image = [mapping.get(s, s) for s in self.states]
        if len(set(image)) != len(image):
            raise ProtocolError("renaming must be injective on the state set")
        rename = lambda s: mapping.get(s, s)
        return PopulationProtocol(
            states=tuple(image),
            transitions=tuple(
                Transition(rename(t.p), rename(t.q), rename(t.p2), rename(t.q2)) for t in self.transitions
            ),
            leaders=Multiset({rename(s): c for s, c in self.leaders.items()}),
            input_mapping={v: rename(s) for v, s in self.input_mapping.items()},
            output={rename(s): b for s, b in self.output.items()},
            name=name or self.name,
        )

    def describe(self) -> str:
        """A readable multi-line description of the protocol."""
        lines = [
            f"protocol {self.name}:",
            f"  states ({self.num_states}): {', '.join(map(str, self.states))}",
            f"  leaders: {self.leaders.pretty()}",
            "  inputs: " + ", ".join(f"{v} -> {s}" for v, s in self.input_mapping.items()),
            "  outputs: " + ", ".join(f"{s}: {b}" for s, b in self.output.items()),
            f"  transitions ({self.num_transitions}):",
        ]
        lines.extend(f"    {t}" for t in self.transitions)
        return "\n".join(lines)

    def __str__(self) -> str:
        return (
            f"<{self.name}: {self.num_states} states, {self.num_transitions} transitions, "
            f"{'leaderless' if self.is_leaderless else f'{self.leaders.size} leaders'}>"
        )


class IndexedProtocol:
    """A dense, integer-indexed view of a protocol.

    States are renumbered ``0 .. n-1`` following the protocol's state
    order, configurations become count tuples, and each transition
    becomes its pre pair ``(i, j)``, its dense pre vector (``pres``) and
    its dense displacement (``deltas``).  Exhaustive reachability and
    simulation work on this view; user code generally should not need
    it.
    """

    def __init__(self, protocol: PopulationProtocol):
        self.protocol = protocol
        self.states: Tuple[State, ...] = protocol.states
        self.index: Dict[State, int] = {s: i for i, s in enumerate(self.states)}
        self.n = len(self.states)
        self.output: Tuple[int, ...] = tuple(protocol.output[s] for s in self.states)
        self.leaders: Tuple[int, ...] = tuple(protocol.leaders[s] for s in self.states)

        pre_pairs: List[Tuple[int, int]] = []
        pres: List[Tuple[int, ...]] = []
        deltas: List[Tuple[int, ...]] = []
        non_silent: List[int] = []
        for t in protocol.transitions:
            i, j = sorted((self.index[t.p], self.index[t.q]))
            pre = [0] * self.n
            pre[i] += 1
            pre[j] += 1
            delta = [0] * self.n
            delta[i] -= 1
            delta[j] -= 1
            delta[self.index[t.p2]] += 1
            delta[self.index[t.q2]] += 1
            pre_pairs.append((i, j))
            pres.append(tuple(pre))
            deltas.append(tuple(delta))
            if any(deltas[-1]):
                non_silent.append(len(deltas) - 1)
        self.pre_pairs: Tuple[Tuple[int, int], ...] = tuple(pre_pairs)
        self.pres: Tuple[Tuple[int, ...], ...] = tuple(pres)
        self.deltas: Tuple[Tuple[int, ...], ...] = tuple(deltas)
        self.non_silent: Tuple[int, ...] = tuple(non_silent)

    @cached_property
    def pair_outcomes(self) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], ...]:
        """The exact sampler's table: what an ordered state pair turns into.

        ``pair_outcomes[i][j]`` lists the post index pairs of the
        transitions from ``<i, j>`` in ``protocol.transitions`` order,
        or holds the identity ``((i, j),)`` when none is registered, so
        a sampler picks uniformly from it with one ``rng.choice``.  Built
        on first use: the analyses never read it.
        """
        registered: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for t, pre in zip(self.protocol.transitions, self.pre_pairs):
            registered.setdefault(pre, []).append((self.index[t.p2], self.index[t.q2]))
        return tuple(
            tuple(tuple(registered.get((min(i, j), max(i, j)), ((i, j),))) for j in range(self.n))
            for i in range(self.n)
        )

    def encode(self, configuration: Multiset) -> Tuple[int, ...]:
        """Dense count tuple of a configuration; a state the protocol lacks is an error."""
        unknown = configuration.support() - self.index.keys()
        if unknown:
            raise ConfigurationError(
                f"configuration {configuration.pretty()} has unknown states {unknown}"
            )
        return configuration.to_vector(self.states)

    def decode(self, counts: Sequence[int]) -> Multiset:
        """Inverse of :meth:`encode`."""
        return Multiset.from_vector(self.states, counts)

    def enabled(self, counts: Sequence[int], t_index: int) -> bool:
        """Is transition ``t_index`` enabled in the dense configuration?"""
        i, j = self.pre_pairs[t_index]
        if i == j:
            return counts[i] >= 2
        return counts[i] >= 1 and counts[j] >= 1

    def successors(self, counts: Tuple[int, ...]) -> List[Tuple[int, Tuple[int, ...]]]:
        """All ``(transition index, successor)`` pairs that change ``counts``.

        Silent transitions are skipped since they never change the
        configuration (they only matter for completeness).
        """
        result: List[Tuple[int, Tuple[int, ...]]] = []
        for k in self.non_silent:
            if self.enabled(counts, k):
                delta = self.deltas[k]
                result.append((k, tuple(c + d for c, d in zip(counts, delta))))
        return result

    def output_of(self, counts: Sequence[int]) -> Optional[int]:
        """Consensus output of a dense configuration, or ``None``."""
        result: Optional[int] = None
        for count, b in zip(counts, self.output):
            if count:
                if result is None:
                    result = b
                elif result != b:
                    return None
        return result

    def initial_counts(self, inputs: Union[int, Mapping[Variable, int], Multiset]) -> Tuple[int, ...]:
        """Dense version of :meth:`PopulationProtocol.initial_configuration`."""
        return self.encode(self.protocol.initial_configuration(inputs))
