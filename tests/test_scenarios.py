"""The scenario library: differential contracts, negative certificates, goldens.

What is pinned here, per ISSUE-10:

* **differential contracts** — for every scenario family the full
  check-block outcome is bit-identical serial vs ``jobs=2/4``, cached
  vs fresh (cold write and warm read), and quotiented vs plain
  coverability;
* **renaming invariance** — hypothesis-driven: renaming the states of
  any new builder (via :func:`repro.testing.renamings`) changes no
  verdict, no work counter, and no protocol fingerprint;
* **negative-certificate regression** — approximate majority's
  wrong-consensus behaviour must make the stable-consensus check
  *fail with a concrete witness trace* (each step a real transition),
  and the ``fails`` wrapper must reject witness-less (vacuous) inner
  failures; a seeded vector-engine ensemble pins the wrong-consensus
  rate against the known bound;
* **builder validation** — the new families reject out-of-range
  parameters with the same guard style as ``simulate --max-steps``;
* **golden analysis artifacts** — the smallest instance of each family
  has its full check record pinned in ``tests/golden/scenarios.json``.

Golden regeneration
-------------------

``tests/golden/scenarios.json`` carries a ``version`` field checked
against :data:`SCENARIO_GOLDEN_VERSION` below.  When scenario checks
or the underlying analyses deliberately change, bump the version here
and regenerate::

    PYTHONPATH=src:. python -c \
        "from tests.test_scenarios import regenerate_golden; regenerate_golden()"

then eyeball the diff — every changed verdict, witness trace, or work
counter is a semantic change and should be explainable from the code
change.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verification import verify_input
from repro.cache import protocol_fingerprint
from repro.cli import main, resolve_protocol
from repro.core.multiset import Multiset
from repro.protocols import (
    approximate_majority,
    double_exp_predicate,
    double_exp_threshold,
    leroux_leader_predicate,
    leroux_leader_threshold,
)
from repro.scenarios import (
    SCENARIOS,
    AlwaysConsensusValue,
    Check,
    CheckOptions,
    EventuallySilent,
    Fails,
    NeverReaches,
    get_scenario,
    run_check,
    run_checks,
)
from repro.reachability.graph import ReachabilityGraph
from repro.simulation.ensembles import run_ensemble
from repro.testing import renamings

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "scenarios.json")

SCENARIO_GOLDEN_VERSION = 2

_SMALLEST = [
    (scenario.name, scenario.smallest.label) for scenario in SCENARIOS.values()
]


def _outcomes(protocol, instance, **overrides):
    return [
        outcome.to_dict()
        for outcome in run_checks(protocol, instance.checks, instance.options(**overrides))
    ]


# ----------------------------------------------------------------------
# Differential contracts
# ----------------------------------------------------------------------


class TestDifferentialContracts:
    @pytest.mark.parametrize("name,label", _SMALLEST)
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_serial_matches_jobs(self, name, label, jobs):
        instance = get_scenario(name).instance(label)
        protocol = instance.build()
        serial = _outcomes(protocol, instance)
        sharded = _outcomes(protocol, instance, jobs=jobs)
        assert serial == sharded

    @pytest.mark.parametrize("name,label", _SMALLEST)
    def test_cached_matches_fresh(self, name, label, cache_store):
        instance = get_scenario(name).instance(label)
        protocol = instance.build()
        cold = _outcomes(protocol, instance)  # computes and writes
        warm = _outcomes(protocol, instance)  # decodes from the store
        assert cold == warm

    @pytest.mark.parametrize("name,label", _SMALLEST)
    def test_quotiented_matches_plain(self, name, label):
        instance = get_scenario(name).instance(label)
        protocol = instance.build()
        plain = _outcomes(protocol, instance)
        quotiented = _outcomes(protocol, instance, quotient=True)
        assert plain == quotiented


# A fresh in-memory comparison point for the cached≡fresh contract:
# the conftest disables the cache globally, so the plain call above is
# the fresh baseline; this cross-fixture test pins fresh == cold.
class TestCachedMatchesUncached:
    @pytest.mark.parametrize("name,label", _SMALLEST)
    def test_fresh_equals_cold(self, name, label, cache_store):
        instance = get_scenario(name).instance(label)
        protocol = instance.build()
        cold = _outcomes(protocol, instance)
        from repro.cache import cache_disabled

        with cache_disabled():
            fresh = _outcomes(protocol, instance)
        assert fresh == cold


# ----------------------------------------------------------------------
# Renaming invariance (hypothesis)
# ----------------------------------------------------------------------


def _renamed_checks(checks, mapping):
    renamed = []
    for check in checks:
        prop = check.prop
        if isinstance(prop, NeverReaches):
            prop = NeverReaches(mapping[prop.state])
        elif isinstance(prop, Fails) and isinstance(prop.inner, NeverReaches):
            prop = Fails(NeverReaches(mapping[prop.inner.state]))
        renamed.append(Check(check.name, prop))
    return tuple(renamed)


def _verdict_signature(outcomes):
    """The renaming-invariant part of a check record."""
    return [(o["name"], o["passed"], o["work"]) for o in outcomes]


class TestRenamingInvariance:
    @pytest.mark.parametrize("name,label", _SMALLEST)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_check_verdicts_invariant(self, name, label, data):
        instance = get_scenario(name).instance(label)
        protocol = instance.build()
        mapping = data.draw(renamings(protocol))
        renamed = protocol.renamed(mapping)
        assert protocol_fingerprint(renamed) == protocol_fingerprint(protocol)
        original = _outcomes(protocol, instance)
        after = [
            outcome.to_dict()
            for outcome in run_checks(
                renamed, _renamed_checks(instance.checks, mapping), instance.options()
            )
        ]
        assert _verdict_signature(after) == _verdict_signature(original)


# ----------------------------------------------------------------------
# Negative-certificate regression (approx-majority wrong consensus)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def am_instance():
    return get_scenario("approx-majority").smallest


class TestWrongConsensusRegression:
    def test_inner_check_fails_with_witness_trace(self, am_instance):
        """The stable-consensus check must FAIL — with a step-checked trace."""
        protocol = am_instance.build()
        inner = Check("MajorityStable", AlwaysConsensusValue(1, "x - y >= 1 and y >= 1"))
        outcome = run_check(protocol, inner, am_instance.options())
        assert not outcome.passed
        witness = outcome.witness
        assert witness is not None
        assert witness.expected == 1
        # The witness starts at the initial configuration of the
        # offending input and ends in a wrong (all-N) consensus.
        assert witness.trace[0] == protocol.initial_configuration(witness.inputs)
        final = witness.trace[-1]
        assert set(final.support()) == {"N"}
        # Every step is a real transition of the protocol.
        indexed = protocol.indexed()
        for current, nxt in zip(witness.trace, witness.trace[1:]):
            successors = {
                successor
                for _, successor in indexed.successors(indexed.encode(current))
            }
            assert indexed.encode(nxt) in successors

    def test_declared_fails_check_passes_with_witness(self, am_instance):
        protocol = am_instance.build()
        (declared,) = [
            c for c in am_instance.checks if c.name == "WrongConsensusReachable"
        ]
        assert isinstance(declared.prop, Fails)
        outcome = run_check(protocol, declared, am_instance.options())
        assert outcome.passed
        assert outcome.witness is not None

    def test_wrong_consensus_input_rejected_exactly(self, am_instance):
        """The smallest majority-with-opposition input is a counterexample."""
        protocol = am_instance.build()
        counterexample = verify_input(protocol, Multiset({"x": 2, "y": 1}), 1)
        assert counterexample is not None
        assert any(set(c.support()) == {"N"} for c in counterexample.bottom_scc)

    def test_fails_rejects_vacuous_inner_failure(self, am_instance, monkeypatch):
        """A witness-less inner failure must NOT satisfy a ``fails`` check."""
        from repro.scenarios import checks as checks_module

        def vacuous(protocol, prop, options):
            return checks_module._Verdict(False, "failed for no stated reason")

        monkeypatch.setattr(checks_module, "_eval_always_value", vacuous)
        protocol = am_instance.build()
        declared = Check(
            "Wrong", Fails(AlwaysConsensusValue(1, "x - y >= 1 and y >= 1"))
        )
        outcome = run_check(protocol, declared, am_instance.options())
        assert not outcome.passed
        assert "vacuous" in outcome.detail

    def test_when_matching_no_input_fails_as_vacuous(self):
        """Regression: a ``when`` filter matching no input passed over
        ``all 0 inputs``; it fails without a witness, and so does ``fails``."""
        protocol = resolve_protocol("binary:4")
        options = CheckOptions(max_input_size=6)
        never = AlwaysConsensusValue(1, "x >= 100")
        outcome = run_check(protocol, Check("Never", never), options)
        assert not outcome.passed
        assert "vacuous" in outcome.detail
        assert outcome.witness is None
        wrapped = run_check(protocol, Check("Never", Fails(never)), options)
        assert not wrapped.passed
        assert "vacuous" in wrapped.detail

    def test_seeded_wrong_consensus_rate(self, am_instance):
        """With a 70/30 majority the wrong consensus happens — but rarely."""
        protocol = am_instance.build()
        result = run_ensemble(
            protocol,
            {"x": 14, "y": 6},
            trials=120,
            max_parallel_time=400.0,
            seed=0,
            engine="vector",
        )
        assert result.converged == result.trials
        wrong = result.verdict_probability(0)
        right = result.verdict_probability(1)
        # The wrong consensus is reachable (this is the point of the
        # family) yet bounded well below the known ~O(1) minority odds.
        assert 0.0 < wrong <= 0.25
        assert right >= 0.6
        # Worker count must not move a single verdict.
        sharded = run_ensemble(
            protocol,
            {"x": 14, "y": 6},
            trials=120,
            max_parallel_time=400.0,
            seed=0,
            jobs=2,
            engine="vector",
        )
        assert sharded.verdicts == result.verdicts


class TestEventuallySilentRefuted:
    def test_churn_fails_with_cycling_witness(self, churn):
        """A protocol that never falls silent fails with a trace into a
        bottom SCC of more than one configuration."""
        outcome = run_check(churn, Check("Silent", EventuallySilent()), CheckOptions(4))
        assert not outcome.passed
        witness = outcome.witness
        assert witness is not None and witness.expected is None
        assert witness.trace[0] == churn.initial_configuration(witness.inputs)
        indexed = churn.indexed()
        graph = ReachabilityGraph.from_roots(churn, [indexed.encode(witness.trace[0])])
        (home,) = [
            scc
            for scc in graph.bottom_sccs()
            if indexed.encode(witness.trace[-1]) in scc
        ]
        assert len(home) > 1
        assert f"bottom SCC of size {len(home)} cycles forever" in outcome.detail


# ----------------------------------------------------------------------
# Builder validation (guard style mirrors `simulate --max-steps`)
# ----------------------------------------------------------------------


class TestBuilderValidation:
    @pytest.mark.parametrize("level", [0, -1, 7])
    def test_double_exp_level_range(self, level):
        with pytest.raises(ValueError, match="level must be"):
            double_exp_threshold(level)

    def test_double_exp_predicate_guard(self):
        with pytest.raises(ValueError, match="level must be >= 1, got 0"):
            double_exp_predicate(0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_leroux_exponent_guard(self, k):
        with pytest.raises(ValueError, match=f"exponent must be >= 1, got {k}"):
            leroux_leader_threshold(k)

    def test_leroux_predicate_guard(self):
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            leroux_leader_predicate(0)

    def test_approx_majority_distinct_variables(self):
        with pytest.raises(ValueError, match="must be distinct"):
            approximate_majority(x="a", y="a")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_double_exp_state_count(self, k):
        assert len(double_exp_threshold(k).states) == 2**k + 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_leroux_state_count_and_leader(self, k):
        protocol = leroux_leader_threshold(k)
        assert len(protocol.states) == k + 5
        assert dict(protocol.leaders) == {"L": 1}

    def test_approx_majority_is_nondeterministic(self):
        assert not approximate_majority().is_deterministic

    def test_check_options_guards(self):
        with pytest.raises(ValueError, match="below"):
            CheckOptions(max_input_size=1, min_input_size=2)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            CheckOptions(max_input_size=4, trials=0)

    def test_cli_samples_guard(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "run", "double-exp", "--samples", "0"])
        assert excinfo.value.code == 2  # argparse rejects, like --max-steps
        assert "must be >= 1" in capsys.readouterr().err


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestScenariosCLI:
    def test_builtin_specs_resolve(self):
        assert resolve_protocol("approx-majority").name.startswith("approximate")
        assert len(resolve_protocol("double-exp:2").states) == 6
        assert len(resolve_protocol("leroux-leader:3").states) == 8

    def test_builtin_spec_bad_argument(self):
        with pytest.raises(SystemExit, match="cannot build"):
            resolve_protocol("double-exp:0")

    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("approx-majority", "double-exp", "leroux-leader"):
            assert name in out

    def test_check_jobs_invariant_json(self, capsys):
        argv = ["scenarios", "check", "leroux-leader", "--instance", "k=1", "--json"]
        assert main(argv) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(argv + ["--jobs", "2"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert serial == sharded

    def test_check_all_smallest(self, capsys):
        assert main(["scenarios", "check", "--smallest", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert sorted(r["scenario"] for r in records) == sorted(SCENARIOS)
        assert all(r["ok"] for r in records)

    def test_run_includes_conformance(self, capsys):
        argv = [
            "scenarios", "run", "double-exp",
            "--instance", "k=1", "--samples", "50", "--json",
        ]
        assert main(argv) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["conformance_ok"] is True
        assert record["fingerprint"] == protocol_fingerprint(double_exp_threshold(1))

    def test_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenarios", "check", "no-such-family"])

    def test_instance_needs_named_scenario(self):
        with pytest.raises(SystemExit, match="--instance needs"):
            main(["scenarios", "check", "all", "--instance", "k=1"])

    def test_unknown_instance(self):
        with pytest.raises(SystemExit, match="no instance"):
            main(["scenarios", "check", "double-exp", "--instance", "k=9"])


# ----------------------------------------------------------------------
# Golden analysis artifacts
# ----------------------------------------------------------------------


def _golden_record(name, label):
    instance = get_scenario(name).instance(label)
    protocol = instance.build()
    return {
        "protocol": protocol.name,
        "states": [str(s) for s in protocol.states],
        "fingerprint": protocol_fingerprint(protocol),
        "checks": _outcomes(protocol, instance),
    }


def regenerate_golden():
    """Rewrite tests/golden/scenarios.json (see module docstring)."""
    data = {
        "version": SCENARIO_GOLDEN_VERSION,
        "scenarios": {
            f"{name}[{label}]": _golden_record(name, label)
            for name, label in _SMALLEST
        },
    }
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data


class TestGoldenScenarios:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def test_version_pinned(self, golden):
        assert golden["version"] == SCENARIO_GOLDEN_VERSION, (
            "scenario golden version drifted: if the checks or analyses "
            "changed deliberately, bump SCENARIO_GOLDEN_VERSION and "
            "regenerate tests/golden/scenarios.json (see module docstring)"
        )

    @pytest.mark.parametrize("name,label", _SMALLEST)
    def test_record_matches_golden(self, name, label, golden):
        entry = _golden_record(name, label)
        expected = golden["scenarios"][f"{name}[{label}]"]
        assert entry == expected, (
            f"scenario record for {name}[{label}] drifted from the "
            "committed golden: a verdict, witness trace, or work counter "
            "changed — if intended, bump SCENARIO_GOLDEN_VERSION and "
            "regenerate (see module docstring)"
        )

    def test_all_golden_checks_pass_except_designed_failures(self, golden):
        for key, record in golden["scenarios"].items():
            for check in record["checks"]:
                assert check["passed"], (key, check["name"])
