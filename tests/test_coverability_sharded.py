"""Differential harness for the sharded, canonicalising, resumable Karp–Miller.

The engine in :mod:`repro.reachability.frontier` promises a strong
contract: *execution strategy never changes the answer*.  Serial,
``jobs=2``, ``jobs=4`` and killed-then-resumed runs must all produce
bit-identical trees, and the engine, which expands each configuration
once up to the root-fixing automorphisms, must give the limit set and
every coverability verdict of the classic tree walk.  That walk is
:func:`classic_tree` below, a test-local oracle with its own expansion
cap.  This module enforces the contract over a corpus of the paper's
protocol constructions, plus:

* agreement with the oracle under random state renamings (Hypothesis,
  via :func:`repro.testing.renamings`);
* the node budget bounds the work: at most ``nodes + roots``
  expansions;
* kill-then-resume equality through the content-addressed cache and
  the flight recorder (checkpoint events + manifest entries);
* a round-trip regression for the cache codec — ``_km_encode`` used
  to silently drop acceleration ancestry (and the symmetry group), so
  a cache *hit* returned a tree with no provenance;
* golden coverability trees for the paper's threshold and majority
  constructions.

Golden regeneration
-------------------

``tests/golden/coverability_trees.json`` pins the Karp–Miller clover
of the paper constructions.  The file carries a ``version`` field
checked against :data:`KM_GOLDEN_VERSION` below, mirroring the
``NORMAL_FORM_VERSION`` flow in ``tests/test_cache.py``: whenever the
Karp–Miller semantics deliberately change (new acceleration rule,
different ω-introduction), bump ``KM_GOLDEN_VERSION`` here and
regenerate the goldens with::

    PYTHONPATH=src:. python -c \
        "from tests.test_coverability_sharded import regenerate_golden; regenerate_golden()"

then eyeball the diff — every changed limit is a semantic change to
the clover and should be explainable from the engine change.
"""

from __future__ import annotations

import glob
import itertools
import json
import math
import os
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    binary_threshold,
    flat_threshold,
    leader_binary_threshold,
    leader_unary_threshold,
    majority_protocol,
    modulo_protocol,
)
from repro import symmetry
from repro.bounds.enumeration import (
    all_deterministic_protocols,
    count_deterministic_protocols,
    protocol_at,
)
from repro.core.errors import SearchBudgetExceeded
from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol, Transition
from repro.protocols.builders import ProtocolBuilder
from repro.reachability.coverability import (
    OMEGA,
    KarpMillerTree,
    _km_decode,
    _km_encode,
    backward_coverability_basis,
    karp_miller,
)
from repro.reachability.frontier import (
    CHECKPOINT_ANALYSIS,
    KarpMillerFrontier,
    apply_permutation,
    canonical_config,
    configuration_symmetries,
)
from repro.testing import protocols as random_protocols
from repro.testing import renamings

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "coverability_trees.json")
KM_GOLDEN_VERSION = 1
NONTRIVIAL_ENUMERATED = 6  # root-fixing groups beyond the identity, n = 2 and 3
ORACLE_EXPANSIONS = 200_000


# --------------------------------------------------------------------- oracle


def classic_tree(protocol, roots, expansion_cap=ORACLE_EXPANSIONS):
    """The classic Karp–Miller tree walk: the engine's test oracle.

    Every branch is expanded until it repeats an ancestor exactly, with
    no visited set and no symmetry, so a configuration is re-expanded
    once per branch that derives it.  A successor gets ω wherever it
    strictly exceeds a branch ancestor it dominates.  The walk is
    exponential in the worst case, so it raises
    :class:`SearchBudgetExceeded` after ``expansion_cap`` expansions.
    """
    indexed = protocol.indexed()
    stack = [(tuple(root), ()) for root in roots]
    nodes = {config for config, _ in stack}
    expansions = 0
    while stack:
        config, ancestors = stack.pop()
        expansions += 1
        if expansions > expansion_cap:
            raise SearchBudgetExceeded(f"classic walk exceeded {expansion_cap} expansions")
        chain = ancestors + (config,)
        for k in indexed.non_silent:
            if any(p > c for p, c in zip(indexed.pres[k], config)):
                continue
            fired = tuple(c + d for c, d in zip(config, indexed.deltas[k]))
            grown = {
                i
                for ancestor in chain
                if ancestor != fired and all(a <= f for a, f in zip(ancestor, fired))
                for i, (a, f) in enumerate(zip(ancestor, fired))
                if a < f
            }
            successor = tuple(OMEGA if i in grown else f for i, f in enumerate(fired))
            nodes.add(successor)
            if successor not in chain:
                stack.append((successor, chain))
    limits = {
        c
        for c in nodes
        if not any(c != d and all(x <= y for x, y in zip(c, d)) for d in nodes)
    }
    return KarpMillerTree(indexed, limits, nodes)


# --------------------------------------------------------------------- corpus


def epidemic():
    return (
        ProtocolBuilder("epidemic")
        .state("u", output=0)
        .state("T", output=1)
        .rule("u", "u", "u", "T")
        .rule("u", "T", "T", "T")
        .input("x", "u")
        .build()
    )


def twin():
    """Two interchangeable sink states: a nontrivial automorphism (A<->B)."""
    return PopulationProtocol(
        states=("u", "A", "B"),
        transitions=(
            Transition("u", "u", "A", "A"),
            Transition("u", "u", "B", "B"),
        ),
        leaders=Multiset({}),
        input_mapping={"x": "u"},
        output={"u": 0, "A": 1, "B": 1},
        name="twin",
    )


def omega_root(protocol):
    """ω on every input state, leaders elsewhere: all inputs at once."""
    indexed = protocol.indexed()
    inputs = set(protocol.input_mapping.values())
    return tuple(
        OMEGA if s in inputs else protocol.leaders[s] for s in indexed.states
    )


def _corpus():
    """(name, protocol, roots): paper constructions + symmetry/edge cases."""
    entries = []
    for name, protocol in [
        ("binary:4", binary_threshold(4)),
        ("flat:6", flat_threshold(6)),
        ("majority", majority_protocol()),
        ("mod3", modulo_protocol({"x": 1}, 1, 3)),
        ("leader3", leader_unary_threshold(3)),
        ("epidemic", epidemic()),
        ("twin", twin()),
    ]:
        roots = [omega_root(protocol)]
        if len(protocol.input_mapping) == 1:
            roots.append(protocol.indexed().initial_counts(4))
        entries.append((name, protocol, roots))
    return entries


CORPUS = _corpus()
CORPUS_IDS = [name for name, _, _ in CORPUS]


def _verdicts(protocol, tree):
    """The full coverability fingerprint of a tree: one bit per query."""
    indexed = protocol.indexed()
    n = indexed.n
    queries = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    queries += [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    queries.append(tuple(1 for _ in range(n)))
    return (
        tuple(tree.covers(q) for q in queries),
        tuple(tree.place_bounded(i) for i in range(n)),
        tuple(
            tree.covers_multiset(Multiset({state: 2})) for state in indexed.states
        ),
    )


def _tree_signature(tree):
    return (
        frozenset(tree.nodes),
        frozenset(tree.limits),
        tuple(sorted(tree.accelerations.items())),
    )


# -------------------------------------------------------- sharded bit-identity


class TestShardedDifferential:
    @pytest.mark.parametrize("name,protocol,roots", CORPUS, ids=CORPUS_IDS)
    def test_jobs_bit_identical(self, name, protocol, roots):
        serial = karp_miller(protocol, roots, node_budget=200_000, jobs=1)
        for jobs in (2, 4):
            sharded = karp_miller(protocol, roots, node_budget=200_000, jobs=jobs)
            assert _tree_signature(sharded) == _tree_signature(serial), (name, jobs)
            assert _verdicts(protocol, sharded) == _verdicts(protocol, serial)

    @pytest.mark.parametrize(
        "name,protocol",
        [(n, p) for n, p, _ in CORPUS if len(p.input_mapping) == 1],
        ids=[n for n, p, _ in CORPUS if len(p.input_mapping) == 1],
    )
    def test_backward_basis_jobs_bit_identical(self, name, protocol):
        indexed = protocol.indexed()
        target = tuple(1 if i == indexed.n - 1 else 0 for i in range(indexed.n))
        serial = backward_coverability_basis(protocol, target, jobs=1)
        for jobs in (2, 4):
            assert backward_coverability_basis(protocol, target, jobs=jobs) == serial

    def test_budget_error_identical_across_jobs(self):
        protocol = flat_threshold(6)
        root = omega_root(protocol)
        messages = set()
        for jobs in (1, 2, 4):
            with pytest.raises(SearchBudgetExceeded) as err:
                karp_miller(protocol, [root], node_budget=5, jobs=jobs)
            messages.add(str(err.value))
        assert len(messages) == 1


# ------------------------------------------------------------------- quotient


class TestQuotientDifferential:
    """The engine (canonical dedup) against the plain classic walk."""

    @pytest.mark.parametrize("name,protocol,roots", CORPUS, ids=CORPUS_IDS)
    def test_quotient_matches_plain(self, name, protocol, roots):
        plain = classic_tree(protocol, roots)
        quotiented = karp_miller(protocol, roots, node_budget=200_000)
        # The dedup prunes *exploration*, never the clover: limit sets
        # are bit-identical and every verdict agrees.
        assert frozenset(quotiented.limits) == frozenset(plain.limits), name
        assert set(quotiented.nodes) <= set(plain.nodes), name
        assert _verdicts(protocol, quotiented) == _verdicts(protocol, plain)

    def test_quotient_and_jobs_compose(self):
        protocol = flat_threshold(7)
        root = omega_root(protocol)
        serial = karp_miller(protocol, [root], node_budget=200_000)
        sharded = karp_miller(protocol, [root], node_budget=200_000, jobs=4)
        assert _tree_signature(sharded) == _tree_signature(serial)

    def test_twin_group_is_nontrivial(self):
        protocol = twin()
        root = omega_root(protocol)
        group = configuration_symmetries(protocol, [root])
        assert len(group) == 2
        swapped = {apply_permutation(perm, (0, 1, 2)) for perm in group}
        assert swapped == {(0, 1, 2), (0, 2, 1)}
        # canonical form is constant on each orbit
        assert canonical_config((5, 1, 3), group) == canonical_config((5, 3, 1), group)

    def test_twin_quotient_prunes_symmetric_branch(self):
        protocol = twin()
        plain = classic_tree(protocol, [(4, 0, 0)])
        quot = KarpMillerFrontier(protocol, [(4, 0, 0)], node_budget=10_000).run()
        assert len(quot.group) == 2
        # (2, 2, 0) and (2, 0, 2) are one orbit: only one is expanded.
        assert quot.stats.dedup_hits > 0
        assert len(quot.nodes) < len(plain.nodes)
        assert frozenset(quot.limits) == frozenset(plain.limits)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_quotient_invariant_under_renaming(self, data):
        protocol = data.draw(random_protocols(max_states=3))
        mapping = data.draw(renamings(protocol))
        renamed = protocol.renamed(mapping, name="renamed")
        root = omega_root(renamed)
        try:
            plain = classic_tree(renamed, [root], expansion_cap=20_000)
        except SearchBudgetExceeded:
            assume(False)
        quot = KarpMillerFrontier(renamed, [root], node_budget=5_000).run()
        assert frozenset(quot.limits) == frozenset(plain.limits)
        assert set(quot.nodes) <= set(plain.nodes)


class TestNodeBudgetBoundsWork:
    """Each canonical configuration is expanded at most once."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_expansions_at_most_nodes_plus_roots(self, data):
        protocol = data.draw(random_protocols(max_states=4))
        roots = [omega_root(protocol)]
        result = KarpMillerFrontier(protocol, roots, node_budget=200_000).run()
        assert result.stats.expansions <= len(result.nodes) + len(roots)

    def test_flat6_expands_each_node_once(self):
        # The classic walk expanded 184 branches for these 14 nodes.
        protocol = flat_threshold(6)
        result = KarpMillerFrontier(
            protocol, [omega_root(protocol)], node_budget=100_000
        ).run()
        assert len(result.nodes) == 14
        assert result.stats.expansions <= len(result.nodes) + 1

    def test_leader_binary6_within_budget(self):
        # The classic walk ran for minutes past 1 GB here without ever
        # reaching the budget.
        protocol = leader_binary_threshold(6)
        result = KarpMillerFrontier(
            protocol, [omega_root(protocol)], node_budget=50_000
        ).run()
        assert (len(result.nodes), len(result.limits)) == (45, 8)
        assert result.stats.expansions <= len(result.nodes) + 1


# ------------------------------------------------------- quotient group pin


def reference_symmetries(protocol, roots, budget=5_040):
    """The frontier group as it was computed before :mod:`repro.symmetry`.

    Candidates permute states within their colour classes and are kept
    when they preserve the non-silent ``(pre pair, delta)`` multiset and
    fix every root.  A structural automorphism preserves that multiset,
    so the shared search can only return a subgroup of this one; the
    differential below pins that the two groups are equal.
    """
    indexed = protocol.indexed()
    n = indexed.n
    identity = tuple(range(n))
    colors = symmetry._refined_colors(protocol)
    classes = {}
    for state, color in colors.items():
        classes.setdefault(color, []).append(indexed.index[state])
    blocks = [sorted(members) for _, members in sorted(classes.items())]
    if math.prod(math.factorial(len(block)) for block in blocks) > budget:
        return (identity,)

    def profile(sigma):
        counts = {}
        for k in indexed.non_silent:
            i, j = indexed.pre_pairs[k]
            delta = [0] * n
            for idx in range(n):
                delta[sigma[idx]] = indexed.deltas[k][idx]
            key = (tuple(sorted((sigma[i], sigma[j]))), tuple(delta))
            counts[key] = counts.get(key, 0) + 1
        return counts

    own = profile(identity)
    group = []
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        sigma = [0] * n
        for block, image in zip(blocks, images):
            for source, target in zip(block, image):
                sigma[source] = target
        if profile(sigma) != own:
            continue
        perm = [0] * n
        for idx in range(n):
            perm[sigma[idx]] = idx
        perm = tuple(perm)
        if all(apply_permutation(perm, tuple(root)) == tuple(root) for root in roots):
            group.append(perm)
    return tuple(sorted(group))


class TestQuotientGroupPinned:
    """The shared automorphism search gives the frontier the same group."""

    @staticmethod
    def _nontrivial(cases):
        count = 0
        for protocol, roots in cases:
            group = configuration_symmetries(protocol, roots)
            assert group == reference_symmetries(protocol, roots), protocol.name
            assert group[0] == tuple(range(protocol.num_states))
            count += len(group) > 1
        return count

    def test_enumerated_protocols(self):
        rng = random.Random(16)
        total = count_deterministic_protocols(3)
        enumerated = list(all_deterministic_protocols(2)) + [
            protocol_at(3, rng.randrange(total)) for _ in range(3_000)
        ]
        cases = [(protocol, [omega_root(protocol)]) for protocol in enumerated]
        assert self._nontrivial(cases) == NONTRIVIAL_ENUMERATED

    def test_corpus(self):
        cases = [(protocol, roots) for _, protocol, roots in CORPUS]
        assert self._nontrivial(cases) == 1  # the twin

    def test_automorphism_moving_a_root_is_dropped(self):
        protocol = twin()
        root = (2, 1, 0)  # one agent already in A: the A <-> B swap moves it
        assert self._nontrivial([(protocol, [root])]) == 0
        plain = classic_tree(protocol, [root])
        quotiented = karp_miller(protocol, [root], node_budget=1_000)
        assert frozenset(quotiented.limits) == frozenset(plain.limits)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_generated_protocols(self, data):
        protocol = data.draw(random_protocols(max_states=4))
        self._nontrivial([(protocol, [omega_root(protocol)])])


# -------------------------------------------------------------- kill / resume


def _checkpoint_files(store):
    return glob.glob(
        os.path.join(store.directory, "v*", f"{CHECKPOINT_ANALYSIS}-*.json")
    )


class TestKillThenResume:
    PROTOCOL = staticmethod(lambda: flat_threshold(6))

    def _kill(self, protocol, root, cache_store):
        """Abort a run mid-construction, leaving a checkpoint behind."""
        engine = KarpMillerFrontier(
            protocol, [root], node_budget=4, checkpoint_interval=1
        )
        with pytest.raises(SearchBudgetExceeded):
            engine.run()
        assert engine.stats.checkpoints_written > 0
        assert _checkpoint_files(cache_store), "no checkpoint on disk after abort"
        return engine

    def test_resume_equals_fresh(self, cache_store):
        protocol = self.PROTOCOL()
        root = omega_root(protocol)
        fresh = KarpMillerFrontier(protocol, [root], node_budget=10_000).run()
        self._kill(protocol, root, cache_store)
        resumed = KarpMillerFrontier(
            protocol, [root], node_budget=10_000, checkpoint_interval=1_000
        ).run()
        assert resumed.stats.resumed
        assert resumed.stats.resumed_expansions > 0
        assert frozenset(resumed.limits) == frozenset(fresh.limits)
        assert set(resumed.nodes) == set(fresh.nodes)
        assert resumed.accelerations == fresh.accelerations

    def test_resume_then_shard_equals_fresh(self, cache_store):
        protocol = self.PROTOCOL()
        root = omega_root(protocol)
        fresh = KarpMillerFrontier(protocol, [root], node_budget=10_000).run()
        self._kill(protocol, root, cache_store)
        resumed = KarpMillerFrontier(
            protocol, [root], node_budget=10_000, jobs=2, checkpoint_interval=1_000
        ).run()
        assert resumed.stats.resumed
        assert frozenset(resumed.limits) == frozenset(fresh.limits)
        assert set(resumed.nodes) == set(fresh.nodes)

    def test_checkpoint_cleared_after_success(self, cache_store):
        protocol = self.PROTOCOL()
        root = omega_root(protocol)
        self._kill(protocol, root, cache_store)
        KarpMillerFrontier(
            protocol, [root], node_budget=10_000, checkpoint_interval=1_000
        ).run()
        assert not _checkpoint_files(cache_store)

    def test_corrupt_checkpoint_falls_back_to_fresh(self, cache_store):
        protocol = self.PROTOCOL()
        root = omega_root(protocol)
        self._kill(protocol, root, cache_store)
        (path,) = _checkpoint_files(cache_store)
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["payload"] = {"version": 999}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        result = KarpMillerFrontier(
            protocol, [root], node_budget=10_000, checkpoint_interval=1_000
        ).run()
        assert not result.stats.resumed
        baseline = KarpMillerFrontier(protocol, [root], node_budget=10_000).run()
        assert frozenset(result.limits) == frozenset(baseline.limits)

    def test_recorder_sees_checkpoints_and_resume(self, cache_store, tmp_path):
        from repro.obs.runs import RunRecorder, read_stream, set_current_run

        protocol = self.PROTOCOL()
        root = omega_root(protocol)
        recorder = RunRecorder.open(
            str(tmp_path / "runs"),
            command="test",
            argv=["test"],
            install_handlers=False,
        )
        try:
            set_current_run(recorder)
            self._kill(protocol, root, cache_store)
            resumed = KarpMillerFrontier(
                protocol, [root], node_budget=10_000, checkpoint_interval=1_000
            ).run()
        finally:
            set_current_run(None)
            recorder.finalize("ok", exit_code=0)
        assert resumed.stats.resumed
        entry = recorder.manifest["checkpoints"][CHECKPOINT_ANALYSIS]
        assert entry["key"] and entry["wall_unix"] > 0
        events, _ = read_stream(str(tmp_path / "runs"), recorder.run_id)
        names = [event["name"] for event in events]
        assert "km-checkpoint" in names
        assert "km-resume" in names


# ----------------------------------------------------- cache codec round-trip


class TestCacheCodecRoundTrip:
    def test_acceleration_ancestry_survives(self):
        """Regression: the codec used to drop accelerations and group.

        A cache hit then returned a tree whose ``accelerations`` dict
        was empty even though the construction had introduced ω — any
        consumer of the provenance silently saw a different tree on the
        second run.
        """
        protocol = flat_threshold(5)
        root = omega_root(protocol)
        tree = karp_miller(protocol, [root], node_budget=10_000)
        assert tree.accelerations, "corpus choice must exercise acceleration"

        payload = json.loads(json.dumps(_km_encode(tree, protocol)))
        restored = _km_decode(payload, protocol)
        assert isinstance(restored, KarpMillerTree)
        assert frozenset(restored.limits) == frozenset(tree.limits)
        assert set(restored.nodes) == set(tree.nodes)
        assert restored.accelerations == tree.accelerations
        assert restored.group == tree.group

    def test_cache_hit_returns_full_tree(self, cache_store):
        protocol = flat_threshold(5)
        root = omega_root(protocol)
        first = karp_miller(protocol, [root], node_budget=10_000)
        second = karp_miller(protocol, [root], node_budget=10_000)
        assert second.accelerations == first.accelerations
        assert frozenset(second.limits) == frozenset(first.limits)
        assert _verdicts(protocol, second) == _verdicts(protocol, first)

    def test_decode_rejects_wrong_width(self):
        protocol = flat_threshold(5)
        root = omega_root(protocol)
        payload = _km_encode(
            karp_miller(protocol, [root], node_budget=10_000), protocol
        )
        with pytest.raises(ValueError):
            _km_decode(payload, binary_threshold(4))


# --------------------------------------------------------------------- golden


def _golden_protocols():
    return {
        "binary-threshold-4": binary_threshold(4),
        "flat-threshold-4": flat_threshold(4),
        "majority": majority_protocol(),
    }


def concrete_root(protocol):
    """A fixed finite population: 4 agents on the first input variable
    (sorted order), 3 on every other, plus the leaders."""
    indexed = protocol.indexed()
    variables = sorted(protocol.input_mapping)
    counts = {}
    for rank, variable in enumerate(variables):
        state = protocol.input_mapping[variable]
        counts[state] = counts.get(state, 0) + (4 if rank == 0 else 3)
    return tuple(
        protocol.leaders[s] + counts.get(s, 0) for s in indexed.states
    )


def _encode_limits(tree):
    return sorted(
        ["w" if c == OMEGA else int(c) for c in limit] for limit in tree.limits
    )


def _golden_entry(protocol):
    omega_tree = karp_miller(protocol, [omega_root(protocol)], node_budget=200_000)
    finite_tree = karp_miller(protocol, [concrete_root(protocol)], node_budget=200_000)
    return {
        "states": [str(s) for s in protocol.indexed().states],
        "limits": _encode_limits(omega_tree),
        "nodes": len(omega_tree.nodes),
        "concrete_root": [int(c) for c in concrete_root(protocol)],
        "concrete_limits": _encode_limits(finite_tree),
        "concrete_nodes": len(finite_tree.nodes),
    }


def regenerate_golden():
    """Rewrite tests/golden/coverability_trees.json (see module docstring)."""
    data = {
        "version": KM_GOLDEN_VERSION,
        "trees": {name: _golden_entry(p) for name, p in _golden_protocols().items()},
    }
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data


class TestGoldenTrees:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def test_version_pinned(self, golden):
        assert golden["version"] == KM_GOLDEN_VERSION, (
            "Karp–Miller golden version drifted: if the engine semantics "
            "changed deliberately, bump KM_GOLDEN_VERSION and regenerate "
            "tests/golden/coverability_trees.json (see module docstring)"
        )

    @pytest.mark.parametrize("name", sorted(_golden_protocols()))
    def test_tree_matches_golden(self, name, golden):
        protocol = _golden_protocols()[name]
        entry = _golden_entry(protocol)
        expected = golden["trees"][name]
        assert entry["states"] == expected["states"], name
        for field in ("limits", "concrete_limits"):
            assert entry[field] == expected[field], (
                f"clover of {name} ({field}) drifted from the committed "
                "golden: this is a semantic change to the Karp–Miller "
                "construction — if intended, bump KM_GOLDEN_VERSION and "
                "regenerate (see module docstring)"
            )
        assert entry["nodes"] == expected["nodes"], name
        assert entry["concrete_nodes"] == expected["concrete_nodes"], name

    @pytest.mark.parametrize("name", sorted(_golden_protocols()))
    def test_golden_invariant_under_strategy(self, name, golden):
        """A sharded run and the classic walk reproduce the committed clover."""
        protocol = _golden_protocols()[name]
        entry = golden["trees"][name]
        roots = {
            "limits": omega_root(protocol),
            "concrete_limits": concrete_root(protocol),
        }
        for field, root in roots.items():
            sharded = karp_miller(protocol, [root], node_budget=200_000, jobs=2)
            plain = classic_tree(protocol, [root])
            for strategy, tree in (("jobs=2", sharded), ("classic", plain)):
                assert _encode_limits(tree) == entry[field], (name, field, strategy)
