"""The content-addressed analysis cache (fingerprint, store, decorator).

Three layers of defence:

* **property tests** — the canonical fingerprint is invariant under
  state renaming and transition reordering, and (on small protocols)
  two fingerprints collide exactly when the protocols are isomorphic;
* **differential tests** — every cached analysis returns bit-identical
  results fresh, cold (computing and writing), disk-warm (decoding a
  payload) and memory-warm (returning the live object), including
  through the CLI at several ``--jobs`` values;
* **corruption tests** — truncated, tampered, garbage and poisoned
  disk entries are silently recomputed, never crashes or wrong data.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import saturation_sequence, stable_slice
from repro.bounds.pipeline import section4_certificate, section5_certificate
from repro.cache import (
    CACHE_SCHEMA_VERSION,
    MISS,
    NORMAL_FORM_VERSION,
    CacheStore,
    cache_disabled,
    canonical_form,
    presentation_digest,
    protocol_fingerprint,
    use_store,
)
from repro.cache import fingerprint as fingerprint_module
from repro.cache.store import payload_checksum
from repro.cli import main
from repro.core.protocol import PopulationProtocol
from repro.obs import get_metrics
from repro.protocols import binary_threshold, flat_threshold
from repro.reachability.coverability import OMEGA, karp_miller
from repro.reachability.pseudo import input_state, realisable_basis
from repro.symmetry import canonical_key
from repro.testing import protocols, renamings
from tests.test_symmetry import brute_force_key, sink_twins

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "fingerprints.json")


def _counters():
    return dict(get_metrics("cache").counters)


def _delta(before, key):
    return _counters().get(key, 0) - before.get(key, 0)


# ----------------------------------------------------------------------
# Fingerprint properties
# ----------------------------------------------------------------------


class TestFingerprintProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invariant_under_renaming(self, data):
        protocol = data.draw(protocols())
        mapping = data.draw(renamings(protocol))
        assert protocol_fingerprint(protocol.renamed(mapping)) == protocol_fingerprint(
            protocol
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invariant_under_transition_reordering(self, data):
        protocol = data.draw(protocols())
        order = data.draw(st.permutations(list(protocol.transitions)))
        reordered = PopulationProtocol(
            states=protocol.states,
            transitions=tuple(order),
            leaders=protocol.leaders,
            input_mapping=dict(protocol.input_mapping),
            output=dict(protocol.output),
            name=protocol.name,
        )
        assert protocol_fingerprint(reordered) == protocol_fingerprint(protocol)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_collision_iff_isomorphic(self, data):
        """On small protocols the fingerprint is a complete invariant.

        Isomorphism is decided by the brute-force oracle over all state
        orderings, not by the search the fingerprint itself runs.
        """
        a = data.draw(protocols())
        b = data.draw(protocols())
        assert (protocol_fingerprint(a) == protocol_fingerprint(b)) == (
            brute_force_key(a) == brute_force_key(b)
        )

    def test_distinct_outputs_distinct_fingerprint(self):
        protocol = binary_threshold(4)
        flipped = PopulationProtocol(
            states=protocol.states,
            transitions=protocol.transitions,
            leaders=protocol.leaders,
            input_mapping=dict(protocol.input_mapping),
            output={s: 1 - b for s, b in protocol.output.items()},
            name=protocol.name,
        )
        assert protocol_fingerprint(flipped) != protocol_fingerprint(protocol)

    def test_presentation_digest_not_renaming_invariant(self):
        """The presentation digest pins the concrete state names."""
        protocol = binary_threshold(4)
        renamed = protocol.renamed({s: f"r{i}" for i, s in enumerate(protocol.states)})
        assert protocol_fingerprint(renamed) == protocol_fingerprint(protocol)
        assert presentation_digest(renamed) != presentation_digest(protocol)

    def test_canonical_form_budget_fallback(self):
        """Nine interchangeable states (9! > 8! orderings) force the
        presentation normal form."""
        assert canonical_form(binary_threshold(4)) is not None
        protocol = sink_twins(9)
        assert canonical_form(protocol) is None
        assert protocol_fingerprint(protocol) == fingerprint_module._digest(
            "repro-protocol-nf",
            {
                "v": NORMAL_FORM_VERSION,
                "normal_form": "presentation",
                "form": fingerprint_module.presentation_form(protocol),
            },
        )
        with pytest.raises(ValueError, match="too many"):
            canonical_key(protocol)


class TestGoldenFingerprints:
    def test_pinned_fingerprints(self):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        assert golden["normal_form_version"] == NORMAL_FORM_VERSION, (
            "the canonical normal form changed without a version bump; "
            "bump NORMAL_FORM_VERSION in src/repro/cache/fingerprint.py "
            "and regenerate tests/golden/fingerprints.json (procedure in "
            "docs/tutorial.md §12)"
        )
        from repro.core.parser import parse_predicate
        from repro.protocols import (
            compile_predicate,
            leader_binary_threshold,
            leader_unary_threshold,
            majority_protocol,
            modulo_protocol,
        )
        from repro.protocols.leader_election import leader_election

        builders = {
            "binary:2": lambda: binary_threshold(2),
            "binary:4": lambda: binary_threshold(4),
            "binary:8": lambda: binary_threshold(8),
            "flat:3": lambda: flat_threshold(3),
            "flat:6": lambda: flat_threshold(6),
            "majority": majority_protocol,
            "modulo:1:3": lambda: modulo_protocol({"x": 1}, 1, 3),
            "leader-unary:3": lambda: leader_unary_threshold(3),
            "leader-binary:4": lambda: leader_binary_threshold(4),
            "election": leader_election,
            "compiled:x >= 5 and x = 0 (mod 2)": lambda: compile_predicate(
                parse_predicate("x >= 5 and x = 0 (mod 2)")
            ),
        }
        assert set(builders) == set(golden["fingerprints"])
        for spec, build in builders.items():
            assert protocol_fingerprint(build()) == golden["fingerprints"][spec], (
                f"fingerprint of {spec} drifted: either the protocol builder "
                "changed (investigate!) or the normal form changed (bump "
                "NORMAL_FORM_VERSION and regenerate the golden file, see "
                "docs/tutorial.md §12)"
            )


# ----------------------------------------------------------------------
# Store unit tests
# ----------------------------------------------------------------------


class TestCacheStore:
    def test_payload_roundtrip(self, tmp_path):
        store = CacheStore(str(tmp_path))
        payload = {"none": False, "value": {"nodes": [[1, 2]]}}
        assert store.put_payload("a", "k" * 64, "fp", payload)
        assert store.get_payload("a", "k" * 64) == payload

    def test_miss_on_absent(self, tmp_path):
        store = CacheStore(str(tmp_path))
        assert store.get_payload("a", "k" * 64) is MISS

    def test_memory_lru_eviction(self, tmp_path):
        before = _counters()
        store = CacheStore(str(tmp_path), memory_entries=2)
        store.put_object("k1", 1)
        store.put_object("k2", 2)
        store.put_object("k3", 3)
        assert store.get_object("k1") is MISS  # evicted, oldest
        assert store.get_object("k2") == 2
        assert store.get_object("k3") == 3
        assert _delta(before, "evictions") == 1

    def test_memory_lru_recency(self, tmp_path):
        store = CacheStore(str(tmp_path), memory_entries=2)
        store.put_object("k1", 1)
        store.put_object("k2", 2)
        store.get_object("k1")  # touch: k2 becomes the eviction victim
        store.put_object("k3", 3)
        assert store.get_object("k1") == 1
        assert store.get_object("k2") is MISS

    def test_memory_tier_disabled(self, tmp_path):
        store = CacheStore(str(tmp_path), memory_entries=0)
        store.put_object("k1", 1)
        assert store.get_object("k1") is MISS

    def test_clear_counts_all_versions(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.put_payload("a", "k" * 64, "fp", {"none": True})
        old = tmp_path / "v0"
        old.mkdir()
        (old / "stale-entry.json").write_text("{}")
        assert store.clear() == 2
        assert not (tmp_path / "v0").exists()
        assert store.get_payload("a", "k" * 64) is MISS

    def test_stats(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.put_payload("coverability.karp_miller", "k" * 64, "fp", {"none": True})
        store.put_payload("stable.slice", "j" * 64, "fp", {"none": True})
        stats = store.stats()
        assert stats["directory"] == str(tmp_path)
        assert stats["schema"] == CACHE_SCHEMA_VERSION
        assert stats["disk_entries"] == 2
        assert stats["by_analysis"] == {
            "coverability.karp_miller": 1,
            "stable.slice": 1,
        }
        assert stats["disk_bytes"] > 0


# ----------------------------------------------------------------------
# Differential: cached vs fresh, all five analyses
# ----------------------------------------------------------------------


def _omega_root(protocol):
    indexed = protocol.indexed()
    x = indexed.index[input_state(protocol)]
    return tuple(OMEGA if i == x else 0 for i in range(indexed.n))


def _run_tiers(tmp_path, run):
    """``run()`` fresh, cold, disk-warm and memory-warm; returns all four."""
    with cache_disabled():
        fresh = run()
    directory = str(tmp_path / "cache")
    with use_store(CacheStore(directory)) as store:
        before = _counters()
        cold = run()
        assert _delta(before, "misses") >= 1
        assert _delta(before, "stores") >= 1
        before = _counters()
        memory_warm = run()
        assert _delta(before, "memory_hits") >= 1
        assert _delta(before, "misses") == 0
    with use_store(CacheStore(directory, memory_entries=0)):
        before = _counters()
        disk_warm = run()
        assert _delta(before, "disk_hits") >= 1
        assert _delta(before, "misses") == 0
    return fresh, cold, disk_warm, memory_warm


class TestDifferentialAnalyses:
    def test_karp_miller(self, tmp_path, threshold4):
        root = _omega_root(threshold4)
        results = _run_tiers(tmp_path, lambda: karp_miller(threshold4, [root]))
        fresh = results[0]
        for tree in results[1:]:
            assert tree.limits == fresh.limits
            assert tree.nodes == fresh.nodes

    def test_realisable_basis(self, tmp_path, threshold4):
        key = lambda basis: [
            (e.pi, e.input_size, e.configuration) for e in basis
        ]
        results = _run_tiers(tmp_path, lambda: realisable_basis(threshold4))
        fresh = results[0]
        for basis in results[1:]:
            assert key(basis) == key(fresh)

    def test_saturation_sequence(self, tmp_path):
        protocol = binary_threshold(6)
        results = _run_tiers(tmp_path, lambda: saturation_sequence(protocol))
        fresh = results[0]
        for result in results[1:]:
            assert result == fresh
            assert result.verify(protocol)

    def test_stable_slice(self, tmp_path, threshold4):
        results = _run_tiers(tmp_path, lambda: stable_slice(threshold4, 4))
        fresh = results[0]
        for sl in results[1:]:
            assert sl.stable0 == fresh.stable0
            assert sl.stable1 == fresh.stable1
            assert sl.all_configs == fresh.all_configs

    def test_section4_certificate(self, tmp_path, threshold4):
        results = _run_tiers(
            tmp_path, lambda: section4_certificate(threshold4, max_length=12)
        )
        fresh = results[0]
        assert fresh is not None
        for certificate in results[1:]:
            assert certificate == fresh
            assert certificate.check().conclusion == fresh.check().conclusion

    def test_section5_certificate(self, tmp_path, threshold4):
        results = _run_tiers(
            tmp_path, lambda: section5_certificate(threshold4, max_input=10)
        )
        fresh = results[0]
        assert fresh is not None
        for certificate in results[1:]:
            assert certificate == fresh
            assert certificate.check().conclusion == fresh.check().conclusion

    def test_none_result_is_cached(self, tmp_path, threshold4):
        """A cached "no certificate" is a hit, not a recomputation."""
        with use_store(CacheStore(str(tmp_path / "cache"))):
            assert section5_certificate(threshold4, max_input=2) is None
            before = _counters()
            assert section5_certificate(threshold4, max_input=2) is None
            assert _delta(before, "hits") == 1
            assert _delta(before, "misses") == 0

    def test_renamed_protocol_does_not_decode_foreign_names(self, tmp_path, threshold4):
        """Same fingerprint, different presentation => different entry.

        Payloads serialise state *names*, so a renamed (isomorphic)
        protocol must never be served another presentation's entry.
        """
        renamed = threshold4.renamed(
            {s: f"r{i}" for i, s in enumerate(threshold4.states)}
        )
        with use_store(CacheStore(str(tmp_path / "cache"))):
            first = saturation_sequence(threshold4)
            before = _counters()
            second = saturation_sequence(renamed)
            assert _delta(before, "misses") == 1
        assert set(map(str, second.configuration)) <= {
            f"r{i}" for i in range(threshold4.num_states)
        }
        assert first.input_size == second.input_size

    def test_distinct_budgets_distinct_entries(self, tmp_path, threshold4):
        """Parameters are part of the key: a different budget is a miss."""
        root = _omega_root(threshold4)
        with use_store(CacheStore(str(tmp_path / "cache"))):
            karp_miller(threshold4, [root], node_budget=100_000)
            before = _counters()
            karp_miller(threshold4, [root], node_budget=200_000)
            assert _delta(before, "misses") == 1


# ----------------------------------------------------------------------
# Corruption: every defective disk entry is a silent recompute
# ----------------------------------------------------------------------


def _single_entry(store):
    (name,) = os.listdir(store.entries_dir)
    return os.path.join(store.entries_dir, name)


class TestCorruptEntries:
    def _populate(self, tmp_path, protocol):
        store = CacheStore(str(tmp_path / "cache"), memory_entries=0)
        with use_store(store):
            fresh = saturation_sequence(protocol)
        return store, fresh

    def _recheck(self, store, protocol, fresh, counter):
        before = _counters()
        with use_store(store):
            again = saturation_sequence(protocol)
        assert again == fresh
        assert _delta(before, counter) == 1
        assert _delta(before, "hits") == 0
        # the defective entry was replaced; the next lookup hits again
        before = _counters()
        with use_store(store):
            assert saturation_sequence(protocol) == fresh
        assert _delta(before, "disk_hits") == 1

    def test_truncated_entry(self, tmp_path):
        protocol = binary_threshold(6)
        store, fresh = self._populate(tmp_path, protocol)
        path = _single_entry(store)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        self._recheck(store, protocol, fresh, "corrupt_entries")

    def test_garbage_entry(self, tmp_path):
        protocol = binary_threshold(6)
        store, fresh = self._populate(tmp_path, protocol)
        with open(_single_entry(store), "w") as handle:
            handle.write("not json at all\x00")
        self._recheck(store, protocol, fresh, "corrupt_entries")

    def test_tampered_payload_fails_checksum(self, tmp_path):
        protocol = binary_threshold(6)
        store, fresh = self._populate(tmp_path, protocol)
        path = _single_entry(store)
        with open(path) as handle:
            entry = json.load(handle)
        entry["payload"]["input_size"] = 1  # checksum now stale
        with open(path, "w") as handle:
            json.dump(entry, handle)
        self._recheck(store, protocol, fresh, "corrupt_entries")

    def test_wrong_schema_version(self, tmp_path):
        protocol = binary_threshold(6)
        store, fresh = self._populate(tmp_path, protocol)
        path = _single_entry(store)
        with open(path) as handle:
            entry = json.load(handle)
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(entry, handle)
        self._recheck(store, protocol, fresh, "corrupt_entries")

    def test_poisoned_payload_fails_decode(self, tmp_path):
        """A checksum-valid entry whose payload the codec rejects."""
        protocol = binary_threshold(6)
        store, fresh = self._populate(tmp_path, protocol)
        path = _single_entry(store)
        with open(path) as handle:
            entry = json.load(handle)
        # reference a state name the protocol does not have, and re-sign
        entry["payload"]["value"]["configuration"] = {"no-such-state": 1}
        entry["checksum"] = payload_checksum(entry["payload"])
        with open(path, "w") as handle:
            json.dump(entry, handle)
        self._recheck(store, protocol, fresh, "decode_errors")

    def test_forged_certificate_is_rechecked(self, tmp_path):
        """A checksum-valid certificate that fails ``check()`` reaches no verdict.

        Regression: the decoded certificate was trusted, so forging
        ``a = 2`` into binary:4's Section 4 entry made the scenario
        check pass with ``eta <= 2``.
        """
        import dataclasses

        from repro.core.errors import ReproError
        from repro.scenarios import CheckOptions, parse_checks, run_checks

        protocol = binary_threshold(4)
        checks = parse_checks("check {\n C = certified section 4\n}")
        options = CheckOptions(max_input_size=6)
        store = CacheStore(str(tmp_path / "cache"), memory_entries=0)
        with use_store(store):
            run_checks(protocol, checks, options)
        (name,) = [n for n in os.listdir(store.entries_dir) if n.startswith("pipeline.section4-")]
        with open(os.path.join(store.entries_dir, name)) as handle:
            entry = json.load(handle)
        assert entry["payload"]["value"]["a"] == 4
        entry["payload"]["value"]["a"] = 2
        key = name[len("pipeline.section4-"):-len(".json")]
        assert store.put_payload("pipeline.section4", key, entry["fingerprint"], entry["payload"])
        with pytest.raises(ReproError):
            dataclasses.replace(section4_certificate(protocol), a=2).check()

        before = _counters()
        with use_store(store):
            (outcome,) = run_checks(protocol, checks, options)
        assert outcome.passed
        assert "eta <= 4" in outcome.detail
        assert _delta(before, "decode_errors") == 1


# ----------------------------------------------------------------------
# CLI differential: identical stdout no-cache / cold / warm, jobs 1/2/4
# ----------------------------------------------------------------------


class TestCLIDifferential:
    @pytest.mark.parametrize("jobs", ["1", "2", "4"])
    def test_analyze_identical_across_tiers(self, tmp_path, capsys, jobs):
        directory = str(tmp_path / "cache")
        argv = ["analyze", "binary:4", "--max-input", "4", "--jobs", jobs]
        assert main(["--no-cache"] + argv) == 0
        fresh = capsys.readouterr().out
        assert main(["--cache-dir", directory] + argv) == 0
        cold = capsys.readouterr().out
        assert main(["--cache-dir", directory] + argv) == 0
        captured = capsys.readouterr()
        assert fresh == cold == captured.out
        # warm run reports its hits on stderr, never stdout
        assert "cache:" in captured.err and " hits" in captured.err

    def test_certify_identical_across_tiers(self, tmp_path, capsys):
        directory = str(tmp_path / "cache")
        argv = ["certify", "binary:4", "--section", "5", "--max-input", "10"]
        assert main(["--no-cache"] + argv) == 0
        fresh = capsys.readouterr().out
        assert main(["--cache-dir", directory] + argv) == 0
        cold = capsys.readouterr().out
        assert main(["--cache-dir", directory] + argv) == 0
        warm = capsys.readouterr().out
        assert fresh == cold == warm

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        directory = str(tmp_path / "cache")
        assert main(["--cache-dir", directory, "certify", "binary:4"]) == 0
        capsys.readouterr()
        assert main(["--cache-dir", directory, "cache", "path"]) == 0
        assert capsys.readouterr().out.strip() == directory
        assert main(["--cache-dir", directory, "cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["disk_entries"] >= 1
        assert stats["schema"] == CACHE_SCHEMA_VERSION
        assert main(["--cache-dir", directory, "cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["--cache-dir", directory, "cache", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["disk_entries"] == 0

    def test_cache_commands_refuse_when_disabled(self, capsys):
        with pytest.raises(SystemExit):
            main(["--no-cache", "cache", "stats"])


# ----------------------------------------------------------------------
# The ledger's warm-vs-cold pairs deliver the promised speedup
# ----------------------------------------------------------------------


class TestWarmSpeedup:
    def test_warm_at_least_5x_faster(self):
        from repro.obs import ledger

        artifact = ledger.run_suite(
            "micro",
            repeats=3,
            memory=False,
            workload_filter=lambda w: w.name.startswith("cache."),
        )
        workloads = artifact["workloads"]
        for pair in ("karp_miller", "pottier"):
            cold = workloads[f"cache.{pair}_cold"]
            warm = workloads[f"cache.{pair}_warm"]
            assert warm["work_paths"]["cache.lookup"].get("hit", 0) == 1
            assert warm["work_paths"]["cache.lookup"].get("miss", 0) == 0
            assert cold["work_paths"]["cache.lookup"].get("miss", 0) == 1
            assert warm["median_s"] * 5 <= cold["median_s"], (
                f"{pair}: warm {warm['median_s']}s vs cold {cold['median_s']}s"
            )
