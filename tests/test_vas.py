"""Tests for the Petri net / VAS subpackage."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro import binary_threshold, flat_threshold
from repro.analysis.invariants import invariant_basis
from repro.cli import resolve_protocol
from repro.core.errors import (
    ConfigurationError,
    ProtocolError,
    SearchBudgetExceeded,
    TransitionNotEnabled,
)
from repro.core.multiset import Multiset
from repro.reachability.graph import ReachabilityGraph
from repro.vas import (
    OMEGA,
    NetTransition,
    PetriNet,
    from_protocol,
    is_bounded,
    is_coverable,
    is_p_invariant,
    karp_miller,
    marking_value,
    p_invariants,
    place_bounds,
    reachable_markings,
    t_invariants,
)


def producer_net() -> PetriNet:
    """Unbounded: a token in `run` pumps tokens into `out` forever."""
    return PetriNet(
        places=("run", "out"),
        transitions=(
            NetTransition("produce", Multiset({"run": 1}), Multiset({"run": 1, "out": 1})),
        ),
        name="producer",
    )


def factory_net() -> PetriNet:
    """Unbounded: `machine` produces items, three items pack into a crate."""
    return PetriNet(
        places=("machine", "item", "crate"),
        transitions=(
            NetTransition("produce", Multiset({"machine": 1}), Multiset({"machine": 1, "item": 1})),
            NetTransition("pack", Multiset({"item": 3}), Multiset({"crate": 1})),
        ),
        name="factory",
    )


def handshake_net() -> PetriNet:
    """Bounded non-conservative net: a + b merge into c."""
    return PetriNet(
        places=("a", "b", "c"),
        transitions=(
            NetTransition("merge", Multiset({"a": 1, "b": 1}), Multiset({"c": 1})),
        ),
        name="handshake",
    )


def random_net(rng: random.Random) -> PetriNet:
    """1-4 integer places, 0-4 transitions, arc weights 0-2 (any arity)."""
    places = tuple(range(rng.randint(1, 4)))

    def arcs() -> Multiset:
        return Multiset({p: rng.randint(0, 2) for p in places})

    transitions = tuple(NetTransition(f"t{k}", arcs(), arcs()) for k in range(rng.randint(0, 4)))
    return PetriNet(places=places, transitions=transitions, name="random")


def successor_closure(net: PetriNet, initial: Multiset, limit: int = 10_000) -> set:
    """Every marking reachable from ``initial``, by ``PetriNet.successors``."""
    closure = {initial}
    todo = [initial]
    while todo:
        for _, successor in net.successors(todo.pop()):
            if successor not in closure:
                closure.add(successor)
                todo.append(successor)
        assert len(closure) <= limit, "closure of a bounded net ran away"
    return closure


class TestModel:
    def test_transition_fire(self):
        t = NetTransition("t", Multiset({"a": 2}), Multiset({"b": 1}))
        assert t.fire(Multiset({"a": 3})) == Multiset({"a": 1, "b": 1})

    def test_transition_not_enabled(self):
        t = NetTransition("t", Multiset({"a": 2}), Multiset({"b": 1}))
        with pytest.raises(TransitionNotEnabled):
            t.fire(Multiset({"a": 1}))

    def test_delta(self):
        t = NetTransition("t", Multiset({"a": 1, "b": 1}), Multiset({"a": 2}))
        assert t.delta == Multiset({"a": 1, "b": -1})

    def test_negative_pre_rejected(self):
        with pytest.raises(ProtocolError):
            NetTransition("bad", Multiset({"a": -1}), Multiset())

    def test_unknown_place_rejected(self):
        with pytest.raises(ProtocolError):
            PetriNet(
                places=("a",),
                transitions=(NetTransition("t", Multiset({"zzz": 1}), Multiset()),),
            )

    def test_duplicate_places_rejected(self):
        with pytest.raises(ProtocolError):
            PetriNet(places=("a", "a"), transitions=())

    def test_conservativity(self):
        assert not handshake_net().is_conservative
        assert from_protocol(binary_threshold(4)).is_conservative

    def test_ordinary(self):
        assert handshake_net().is_ordinary
        t = NetTransition("w", Multiset({"a": 2}), Multiset({"b": 1}))
        assert not PetriNet(places=("a", "b"), transitions=(t,)).is_ordinary

    def test_incidence_matrix(self):
        net = handshake_net()
        assert net.incidence_matrix() == [[-1], [-1], [1]]

    def test_fire_sequence(self):
        net = handshake_net()
        final = net.fire_sequence(Multiset({"a": 2, "b": 2}), ["merge", "merge"])
        assert final == Multiset({"c": 2})

    def test_describe(self):
        assert "handshake" in handshake_net().describe()


class TestFromProtocol:
    def test_shape(self, threshold4):
        net = from_protocol(threshold4)
        assert net.num_places == threshold4.num_states
        assert net.num_transitions == threshold4.num_transitions

    def test_semantics_agree(self, threshold4):
        from repro.core.semantics import successors

        net = from_protocol(threshold4)
        config = threshold4.initial_configuration(5)
        protocol_successors = {succ for _, succ in successors(threshold4, config)}
        net_successors = {succ for _, succ in net.successors(config)}
        assert protocol_successors == net_successors


class TestReachability:
    def test_bounded_exploration(self):
        net = handshake_net()
        markings = reachable_markings(net, Multiset({"a": 2, "b": 1}))
        assert Multiset({"a": 1, "c": 1}) in markings
        assert len(markings) == 2

    def test_unbounded_net_hits_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            reachable_markings(producer_net(), Multiset({"run": 1}), node_budget=50)

    def test_karp_miller_detects_unboundedness(self):
        net = producer_net()
        assert not is_bounded(net, Multiset({"run": 1}))
        bounds = place_bounds(net, Multiset({"run": 1}))
        assert bounds["out"] == OMEGA
        assert bounds["run"] == 1

    def test_karp_miller_bounded_net(self):
        net = handshake_net()
        assert is_bounded(net, Multiset({"a": 3, "b": 3}))
        bounds = place_bounds(net, Multiset({"a": 3, "b": 3}))
        assert bounds["c"] == 3

    def test_coverability(self):
        net = producer_net()
        assert is_coverable(net, Multiset({"run": 1}), Multiset({"out": 100}))
        assert not is_coverable(net, Multiset({"out": 5}), Multiset({"run": 1}))

    def test_protocol_net_coverability_matches(self):
        """Karp–Miller coverability equals domination in the exact graph.

        From a concrete initial configuration a protocol net reaches
        finitely many markings, so the exact reachability graph is an
        oracle independent of the Karp–Miller engine.
        """
        for protocol in (binary_threshold(4), flat_threshold(4)):
            net = from_protocol(protocol)
            indexed = protocol.indexed()
            for i in (3, 4, 5, 6):
                initial = protocol.initial_configuration(i)
                graph = ReachabilityGraph.from_roots(protocol, [indexed.encode(initial)])
                for state in protocol.states:
                    for count in (1, 2, i):
                        target = Multiset({state: count})
                        dense = indexed.encode(target)
                        expected = any(
                            all(t <= c for t, c in zip(dense, node)) for node in graph.nodes
                        )
                        assert is_coverable(net, initial, target) == expected, (protocol, i, target)

    @pytest.mark.parametrize(
        "net,initial",
        [
            (handshake_net(), Multiset({"a": 3, "b": 2, "c": 1})),
            (from_protocol(binary_threshold(4)), binary_threshold(4).initial_configuration(6)),
        ],
        ids=["handshake", "binary:4"],
    )
    def test_reachable_markings_match_successor_closure(self, net, initial):
        assert reachable_markings(net, initial) == successor_closure(net, initial)

    def test_marking_with_unknown_place_rejected(self):
        """Regression: an unknown target place was dropped, so it was "coverable"."""
        net = handshake_net()
        with pytest.raises(ConfigurationError):
            is_coverable(net, Multiset({"a": 1}), Multiset({"zzz": 1}))
        with pytest.raises(ConfigurationError):
            reachable_markings(net, Multiset({"zzz": 1}))

    def test_factory_net_bounds_and_budget(self):
        net = factory_net()
        start = Multiset({"machine": 1})
        assert place_bounds(net, start) == {"machine": 1, "item": OMEGA, "crate": OMEGA}
        with pytest.raises(SearchBudgetExceeded):
            karp_miller(net, start, node_budget=2)

    def test_random_bounded_nets_match_successor_closure(self):
        """Seeded differential of the net front end against ``PetriNet.successors``.

        On a bounded net no reachable marking strictly dominates one it
        came from, so Karp–Miller accelerates nothing: its ``limits``
        are the maximal reachable markings, and ``place_bounds`` is the
        per-place maximum over the reachable set.  Nets whose tree
        exceeds the budget or gains an ω are skipped.
        """
        rng = random.Random(21)
        compared = 0
        for _ in range(300):
            net = random_net(rng)
            initial = Multiset({p: rng.randint(0, 3) for p in net.places})
            try:
                tree = karp_miller(net, initial, node_budget=300)
            except SearchBudgetExceeded:
                continue
            if any(OMEGA in limit for limit in tree.limits):
                continue
            closure = successor_closure(net, initial)
            dense = {tuple(m[p] for p in net.places) for m in closure}
            maximal = {
                x for x in dense if not any(x != y and all(a <= b for a, b in zip(x, y)) for y in dense)
            }
            assert set(tree.limits) == maximal, net.describe()
            assert place_bounds(net, initial) == {
                p: max(m[p] for m in closure) for p in net.places
            }, net.describe()
            assert is_bounded(net, initial)
            assert reachable_markings(net, initial) == closure, net.describe()
            compared += 1
        assert compared >= 100


class TestInvariants:
    def test_p_invariant_of_protocol_net(self, threshold4):
        net = from_protocol(threshold4)
        ones = {p: 1 for p in net.places}
        assert is_p_invariant(net, ones)

    def test_handshake_invariant(self):
        net = handshake_net()
        # a + c and b + c are both conserved
        assert is_p_invariant(net, {"a": 1, "c": 1})
        assert is_p_invariant(net, {"b": 1, "c": 1})
        assert not is_p_invariant(net, {"a": 1})
        basis = p_invariants(net)
        assert len(basis) == 2

    def test_marking_value_conserved(self):
        net = handshake_net()
        weights = {"a": 1, "c": 1}
        before = Multiset({"a": 2, "b": 2})
        after = net.fire_sequence(before, ["merge"])
        assert marking_value(weights, before) == marking_value(weights, after)

    def test_t_invariants_of_cycle(self):
        net = PetriNet(
            places=("a", "b"),
            transitions=(
                NetTransition("fwd", Multiset({"a": 1}), Multiset({"b": 1})),
                NetTransition("back", Multiset({"b": 1}), Multiset({"a": 1})),
            ),
        )
        invariants = t_invariants(net)
        assert Multiset({"fwd": 1, "back": 1}) in invariants

    def test_producer_has_no_t_invariant(self):
        assert t_invariants(producer_net()) == []

    @pytest.mark.parametrize(
        "spec", ["binary:4", "flat:6", "majority", "modulo:1:3", "leader-unary:4", "election"]
    )
    def test_protocol_and_net_share_the_invariant_kernel(self, spec):
        protocol = resolve_protocol(spec)
        net = from_protocol(protocol)
        basis = invariant_basis(protocol)
        assert basis == p_invariants(net)
        assert all(is_p_invariant(net, weights) for weights in basis)


def test_cli_import_loads_no_vas_module():
    """The import points from `repro.vas` to the protocol layer, never back."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.vas')))",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert done.stdout.strip() == "[]"
