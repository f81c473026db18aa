"""End-to-end certificate pipelines: the paper's proofs as algorithms.

Two entry points, matching the two halves of the paper:

* :func:`section4_certificate` — the Lemma 4.2 + Dickson + Lemma 4.1
  route, valid for protocols **with or without leaders**: build the
  stable sequence ``C_2, C_3, ...`` (each ``C_(i+1)`` a stable
  configuration reached from ``C_i + x``), find an ordered pair
  ``C_k <= C_l`` (Dickson's lemma guarantees one), and package it as a
  checkable :class:`~repro.bounds.certificates.PumpingCertificate`
  proving ``eta <= k``.

* :func:`section5_certificate` — the Lemma 5.4 + 5.5 + 5.8 + 5.2
  route for **leaderless** protocols: find a saturated way-point ``D``
  on a run ``IC(a) ->* D ->* B + D_a`` into a stable, concentrated
  configuration, and pair it with a Hilbert-basis pump
  ``IC(b) ==pi==> D_b in N^S`` from Corollary 5.7, packaged as a
  :class:`~repro.bounds.certificates.SaturationCertificate`.

The paper instantiates these arguments with worst-case constants
(``a = xi * n * beta * 3^n``); the pipelines instead *search* for the
smallest ``a`` that works on the concrete protocol, which is what
experiment E6/E7 report next to the astronomical theoretical values.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cache.decorator import cached_analysis
from ..cache.fingerprint import state_name_map
from ..core.errors import CertificateError, ReproError, SearchBudgetExceeded
from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol, Transition
from ..obs import get_tracer, progress
from ..reachability.graph import ReachabilityGraph, path_transitions
from ..reachability.pseudo import RealisableBasisElement, input_state, realisable_basis
from ..wqo.dickson import first_ordered_pair
from .certificates import PumpingCertificate, SaturationCertificate

__all__ = [
    "StableSequence",
    "build_stable_sequence",
    "section4_certificate",
    "section5_certificate",
]

Config = Tuple[int, ...]


def _stable_nodes(indexed, graph: ReachabilityGraph) -> Dict[Config, int]:
    """Map each stable node of a forward-closed graph to its verdict."""
    bad_for: Dict[int, List[Config]] = {0: [], 1: []}
    for config in graph.nodes:
        outputs = {indexed.output[i] for i, c in enumerate(config) if c}
        if 1 in outputs:
            bad_for[0].append(config)
        if 0 in outputs:
            bad_for[1].append(config)
    unstable0 = graph.backward_closure(bad_for[0])
    unstable1 = graph.backward_closure(bad_for[1])
    verdicts: Dict[Config, int] = {}
    for config in graph.nodes:
        if config not in unstable0:
            verdicts[config] = 0
        elif config not in unstable1:
            verdicts[config] = 1
    return verdicts


@dataclass(frozen=True)
class StableSequence:
    """The Lemma 4.2 sequence ``C_2, C_3, ..., C_m`` with explicit paths.

    ``configurations[i]`` is ``C_(i + offset)``; ``cumulative_paths[i]``
    fires ``IC(i + offset) ->* C_(i + offset)``; ``bridges[i]`` fires
    ``C_(i + offset) + x ->* C_(i + offset + 1)``.
    """

    offset: int
    configurations: Tuple[Multiset, ...]
    cumulative_paths: Tuple[Tuple[Transition, ...], ...]
    bridges: Tuple[Tuple[Transition, ...], ...]

    def input_of(self, position: int) -> int:
        """The input size ``i`` whose stable configuration sits at ``position``."""
        return self.offset + position


def build_stable_sequence(
    protocol: PopulationProtocol,
    length: int,
    node_budget: int = 2_000_000,
) -> StableSequence:
    """Construct ``C_2 .. C_(length + 1)`` following the proof of Lemma 4.2.

    Each ``C_(i+1)`` is a stable configuration reachable from
    ``C_i + x`` (the exact graph provides one, plus the firing path);
    fairness guarantees existence, the exact computation finds it.
    """
    indexed = protocol.indexed()
    x = input_state(protocol)

    configurations: List[Multiset] = []
    cumulative: List[Tuple[Transition, ...]] = []
    bridges: List[Tuple[Transition, ...]] = []

    current = protocol.initial_configuration(2)
    path_so_far: Tuple[Transition, ...] = ()
    with get_tracer().span(
        "pipeline.stable_sequence", length=length, protocol=protocol.name
    ) as span:
        meter = progress(
            "stable-sequence",
            lambda: {"position": len(configurations), "target": length},
        )
        for position in range(length):
            meter.tick()
            graph = ReachabilityGraph.from_roots(
                protocol, [indexed.encode(current)], node_budget=node_budget
            )
            verdicts = _stable_nodes(indexed, graph)
            if not verdicts:
                raise ReproError(
                    f"no stable configuration reachable from {current.pretty()} — "
                    "the protocol does not stabilise on this input"
                )
            target = min(verdicts)  # deterministic choice
            path = graph.shortest_path(indexed.encode(current), target)
            assert path is not None
            bridge = path_transitions(indexed, path)
            stable_config = indexed.decode(target)

            path_so_far = path_so_far + bridge
            configurations.append(stable_config)
            cumulative.append(path_so_far)
            bridges.append(bridge)
            current = stable_config + Multiset.singleton(x)
            span.add("graph_nodes", len(graph.nodes))
        meter.finish()

    # bridges[i] as stored fires C_i + x ->* C_(i+1); shift them so the
    # dataclass contract holds (the first entry was IC(2) ->* C_2).
    return StableSequence(
        offset=2,
        configurations=tuple(configurations),
        cumulative_paths=tuple(cumulative),
        bridges=tuple(bridges[1:]) + ((),),
    )


# -- cache codecs ------------------------------------------------------
#
# Certificates serialise by state *names* (payloads never embed live
# protocol objects); decoding rebuilds them against the caller's
# protocol — for Section 5, against its coverable restriction, which
# is what the fresh pipeline returns certificates over.


def _names_of_transitions(transitions: Sequence[Transition]) -> List[List[str]]:
    return [[str(t.p), str(t.q), str(t.p2), str(t.q2)] for t in transitions]


def _transitions_from_names(rows, names) -> Tuple[Transition, ...]:
    return tuple(Transition(names[a], names[b], names[c], names[d]) for a, b, c, d in rows)


def _multiset_to_names(multiset: Multiset) -> Dict[str, int]:
    return {str(q): c for q, c in multiset.items()}


def _multiset_from_names(payload, names) -> Multiset:
    return Multiset({names[q]: int(c) for q, c in payload.items()})


def _s4_params(arguments):
    return {
        "max_length": int(arguments["max_length"]),
        "node_budget": int(arguments["node_budget"]),
    }


def _s4_encode(certificate: PumpingCertificate, protocol: PopulationProtocol):
    return {
        "a": certificate.a,
        "b": certificate.b,
        "B": _multiset_to_names(certificate.B),
        "S": sorted(str(q) for q in certificate.S),
        "path_to_stable": _names_of_transitions(certificate.path_to_stable),
        "pump_path": _names_of_transitions(certificate.pump_path),
    }


def _s4_decode(payload, protocol: PopulationProtocol) -> PumpingCertificate:
    names = state_name_map(protocol)
    return PumpingCertificate(
        protocol=protocol,
        a=int(payload["a"]),
        b=int(payload["b"]),
        B=_multiset_from_names(payload["B"], names),
        S=frozenset(names[q] for q in payload["S"]),
        path_to_stable=_transitions_from_names(payload["path_to_stable"], names),
        pump_path=_transitions_from_names(payload["pump_path"], names),
    )


def _s5_params(arguments):
    return {
        "max_input": int(arguments["max_input"]),
        "cap": int(arguments["cap"]),
        "node_budget": int(arguments["node_budget"]),
        "frontier_budget": int(arguments["frontier_budget"]),
    }


def _s5_encode(certificate: SaturationCertificate, protocol: PopulationProtocol):
    return {
        "a": certificate.a,
        "b": certificate.b,
        "B": _multiset_to_names(certificate.B),
        "S": sorted(str(q) for q in certificate.S),
        "path_to_saturated": _names_of_transitions(certificate.path_to_saturated),
        "path_to_stable": _names_of_transitions(certificate.path_to_stable),
        "pi": [
            [c, str(t.p), str(t.q), str(t.p2), str(t.q2)]
            for t, c in sorted(certificate.pi.items(), key=lambda item: str(item[0]))
        ],
    }


def _s5_decode(payload, protocol: PopulationProtocol) -> SaturationCertificate:
    restricted = protocol.restricted_to_coverable()
    names = state_name_map(restricted)
    return SaturationCertificate(
        protocol=restricted,
        a=int(payload["a"]),
        b=int(payload["b"]),
        B=_multiset_from_names(payload["B"], names),
        S=frozenset(names[q] for q in payload["S"]),
        path_to_saturated=_transitions_from_names(payload["path_to_saturated"], names),
        path_to_stable=_transitions_from_names(payload["path_to_stable"], names),
        pi=Multiset(
            {
                Transition(names[p], names[q], names[p2], names[q2]): int(c)
                for c, p, q, p2, q2 in payload["pi"]
            }
        ),
    )


@cached_analysis(
    "pipeline.section4",
    params=_s4_params,
    encode=_s4_encode,
    decode=_s4_decode,
)
def section4_certificate(
    protocol: PopulationProtocol,
    max_length: int = 30,
    node_budget: int = 2_000_000,
) -> Optional[PumpingCertificate]:
    """Run the Section 4 argument on a concrete protocol.

    Returns a checked :class:`PumpingCertificate` proving ``eta <= a``
    for the smallest ``a`` the ordered-pair search yields, or ``None``
    when no pair within ``max_length`` survives the certificate check.
    """
    with get_tracer().span(
        "pipeline.section4", protocol=protocol.name, max_length=max_length
    ) as span:
        sequence = build_stable_sequence(protocol, max_length, node_budget=node_budget)
        vectors = [c.to_vector(protocol.states) for c in sequence.configurations]

        # scan ordered pairs in order of increasing k (smallest certified a first)
        pairs = []
        for j in range(1, len(vectors)):
            for i in range(j):
                if all(a <= b for a, b in zip(vectors[i], vectors[j])):
                    pairs.append((i, j))
        pairs.sort()
        span.add("ordered_pairs", len(pairs))

        for i, j in pairs:
            c_k = sequence.configurations[i]
            c_l = sequence.configurations[j]
            a = sequence.input_of(i)
            b = sequence.input_of(j) - a
            pump_path: Tuple[Transition, ...] = ()
            for position in range(i, j):
                pump_path = pump_path + sequence.bridges[position]
            S = frozenset((c_l - c_k).support()) or frozenset({input_state(protocol)})
            certificate = PumpingCertificate(
                protocol=protocol,
                a=a,
                b=b,
                B=c_k,
                S=S,
                path_to_stable=sequence.cumulative_paths[i],
                pump_path=pump_path,
            )
            try:
                span.add("certificates_checked")
                certificate.check(node_budget=node_budget)
                span.set(certified_a=certificate.a, certified_b=certificate.b)
                return certificate
            except CertificateError:
                continue
    return None


@cached_analysis(
    "pipeline.section5",
    params=_s5_params,
    encode=_s5_encode,
    decode=_s5_decode,
)
def section5_certificate(
    protocol: PopulationProtocol,
    max_input: int = 16,
    cap: int = 1,
    node_budget: int = 2_000_000,
    frontier_budget: int = 2_000_000,
) -> Optional[SaturationCertificate]:
    """Run the Section 5 argument on a concrete leaderless protocol.

    Searches inputs ``a = 2 .. max_input`` for the full Lemma 5.2
    witness: a ``2|pi|``-saturated way-point ``D`` on a run
    ``IC(a) ->* D ->* B + D_a`` ending in a stable configuration, with
    the pump ``pi`` drawn from the Hilbert basis of potentially
    realisable multisets (Corollary 5.7).  Returns the first
    certificate that passes ``check()``.

    The protocol is first restricted to its coverable states (the
    paper's standing "wlog"); the returned certificate references the
    restricted, semantically equivalent protocol.  Raises
    ``ValueError`` for a negative ``cap``.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    protocol = protocol.restricted_to_coverable()
    indexed = protocol.indexed()
    x = input_state(protocol)

    tracer = get_tracer()
    with tracer.span(
        "pipeline.section5", protocol=protocol.name, max_input=max_input
    ) as span:
        with tracer.span("pipeline.realisable_basis"):
            candidates = [
                element
                for element in realisable_basis(protocol, frontier_budget=frontier_budget)
                if element.input_size >= 1
            ]
        span.add("basis_candidates", len(candidates))
        if not candidates:
            return None
        candidates.sort(key=lambda e: (e.size, e.input_size))

        meter = progress("section5", lambda: {"candidates": len(candidates)})
        for a in range(2, max_input + 1):
            meter.tick()
            span.add("inputs_searched")
            certificate = _section5_attempt(
                protocol, indexed, a, candidates, cap, node_budget, span
            )
            if certificate is None:
                continue
            if certificate is _BUDGET_EXCEEDED:
                break
            span.set(certified_a=certificate.a, certified_b=certificate.b)
            return certificate
    return None


_BUDGET_EXCEEDED = object()
"""Sentinel: the reachability graph blew the node budget at this input."""


def _section5_attempt(protocol, indexed, a, candidates, cap, node_budget, span):
    """One input size of the Section 5 search (see :func:`section5_certificate`).

    Targets are the stable nodes in sorted order.  A candidate's
    way-point is the first reacher of the target (in sorted order)
    that is ``2|pi|``-saturated.  The running maximum of the reachers'
    saturation levels ``min(node)`` is non-decreasing, so it is
    computed once per target and bisected per candidate.  Candidates
    come sorted by size, so the first one that no reacher saturates
    ends the target's scan; ``B`` and ``S`` are built only for
    candidates with a way-point.
    """
    initial = indexed.encode(protocol.initial_configuration(a))
    try:
        graph = ReachabilityGraph.from_roots(protocol, [initial], node_budget=node_budget)
    except SearchBudgetExceeded:
        return _BUDGET_EXCEEDED
    verdicts = _stable_nodes(indexed, graph)
    for target in sorted(verdicts):
        stable_config = indexed.decode(target)
        reachers = sorted(graph.backward_closure([target]))
        saturation = list(itertools.accumulate(map(min, reachers), max))
        for element in candidates:
            position = bisect.bisect_left(saturation, 2 * element.size)
            if position == len(reachers):
                break
            way_point = reachers[position]
            path_a = graph.shortest_path(initial, way_point)
            path_b = graph.shortest_path(way_point, target)
            if path_a is None or path_b is None:
                continue
            S = frozenset(element.configuration.support()) | frozenset(
                q for q in stable_config.support() if stable_config[q] > cap
            )
            B = Multiset(
                {
                    q: min(c, cap) if q in S else c
                    for q, c in stable_config.items()
                }
            )
            certificate = SaturationCertificate(
                protocol=protocol,
                a=a,
                b=element.input_size,
                B=B,
                S=S,
                path_to_saturated=path_transitions(indexed, path_a),
                path_to_stable=path_transitions(indexed, path_b),
                pi=element.pi,
            )
            try:
                span.add("certificates_checked")
                certificate.check(node_budget=node_budget)
                return certificate
            except CertificateError:
                continue
    return None
