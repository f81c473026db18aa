"""Compile scenario DSL checks onto the analysis machinery.

Each :class:`~repro.scenarios.dsl.Property` maps to existing engines:

* ``always consensus ...`` — :func:`repro.analysis.verify_protocol` /
  :func:`repro.analysis.verify_input` (bottom-SCC exact verification);
* ``eventually silent`` — :func:`repro.analysis.verification.check_silence`
  on every input;
* ``never reaches`` — :func:`repro.reachability.karp_miller` with
  omega on the input states (all inputs at once), honouring ``jobs``
  so the serial ≡ sharded contract extends to scenarios;
* ``stable consensus`` — :func:`repro.analysis.stable_slice`;
* ``usually consensus`` — the seeded vector ensemble engine
  (:func:`repro.simulation.run_ensemble`);
* ``certified`` — the Section 4 / 5 certificate pipelines.

A refuted consensus or silence check's witness is the verification
pass's :class:`~repro.analysis.verification.Counterexample`, whose
checked trace comes from the graph the check itself built.

``fails PROP`` runs ``PROP`` and asserts it did *not* hold; for the
consensus forms the inner failure must produce a concrete witness, so
a checker that fails vacuously (no counterexample attached) does not
satisfy the ``fails`` assertion.

Every check runs under an observability span
(``scenarios.check``), so traced scenario runs attribute their work
per check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.stable import stable_slice
from ..analysis.verification import Counterexample, all_inputs, check_silence, verify_input, verify_protocol
from ..bounds.pipeline import section4_certificate, section5_certificate
from ..core.multiset import Multiset
from ..core.parser import parse_predicate
from ..core.protocol import PopulationProtocol
from ..obs import get_tracer
from ..reachability.coverability import OMEGA, karp_miller
from ..simulation.ensembles import run_ensemble
from .dsl import (
    AlwaysConsensusOf,
    AlwaysConsensusValue,
    Certified,
    Check,
    EventuallySilent,
    Fails,
    NeverReaches,
    Property,
    StableConsensus,
    UsuallyConsensus,
    format_property,
)

__all__ = ["CheckOptions", "CheckOutcome", "run_check", "run_checks"]

# Property kinds whose refutation must carry a concrete witness for a
# surrounding ``fails`` to be satisfied (the vacuous-pass guard).
_WITNESS_KINDS = ("always-of", "always-value")


@dataclass(frozen=True)
class CheckOptions:
    """Sweep bounds and engine knobs shared by every check of a scenario.

    ``jobs`` threads through to the coverability and ensemble engines;
    by the repo's determinism contracts it must not change any verdict
    (the differential suite pins this per family).
    """

    max_input_size: int
    min_input_size: int = 2
    jobs: int = 1
    seed: int = 0
    trials: int = 120
    node_budget: int = 2_000_000
    coverability_budget: int = 200_000

    def __post_init__(self):
        if self.max_input_size < self.min_input_size:
            raise ValueError(
                f"max_input_size {self.max_input_size} below "
                f"min_input_size {self.min_input_size}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict of one named check."""

    name: str
    source: str
    passed: bool
    detail: str
    witness: Optional[Counterexample] = None
    work: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "source": self.source,
            "passed": self.passed,
            "detail": self.detail,
            "work": dict(sorted(self.work.items())),
        }
        payload["witness"] = self.witness.to_dict() if self.witness else None
        return payload


@dataclass
class _Verdict:
    passed: bool
    detail: str
    witness: Optional[Counterexample] = None
    work: Dict[str, int] = field(default_factory=dict)


def _input_sweep(protocol: PopulationProtocol, options: CheckOptions):
    variables = tuple(sorted(protocol.input_mapping))
    return all_inputs(variables, options.max_input_size, options.min_input_size)


def _eval_always_of(
    protocol: PopulationProtocol, prop: AlwaysConsensusOf, options: CheckOptions
) -> _Verdict:
    predicate = parse_predicate(prop.predicate)
    report = verify_protocol(
        protocol,
        predicate,
        max_input_size=options.max_input_size,
        min_input_size=options.min_input_size,
        node_budget=options.node_budget,
    )
    work = {"inputs_checked": report.inputs_checked, "largest_graph": report.largest_graph}
    if report.ok:
        return _Verdict(
            True,
            f"verified against '{prop.predicate}' on {report.inputs_checked} inputs",
            work=work,
        )
    ce = report.counterexample
    return _Verdict(
        False,
        f"input {ce.inputs.pretty()} violates '{prop.predicate}': {ce.reason}",
        witness=ce,
        work=work,
    )


def _eval_always_value(
    protocol: PopulationProtocol, prop: AlwaysConsensusValue, options: CheckOptions
) -> _Verdict:
    when = parse_predicate(prop.when) if prop.when is not None else None
    checked = 0
    for inputs in _input_sweep(protocol, options):
        if when is not None and not when.evaluate(inputs):
            continue
        checked += 1
        ce = verify_input(protocol, inputs, prop.value, node_budget=options.node_budget)
        if ce is not None:
            return _Verdict(
                False,
                f"input {ce.inputs.pretty()} does not stabilise to {prop.value}: {ce.reason}",
                witness=ce,
                work={"inputs_checked": checked},
            )
    suffix = f" when {prop.when}" if prop.when is not None else ""
    if not checked:
        return _Verdict(
            False,
            f"vacuous: no input{suffix} among sizes {options.min_input_size} "
            f"to {options.max_input_size}",
            work={"inputs_checked": 0},
        )
    return _Verdict(
        True,
        f"all {checked} inputs{suffix} stabilise to consensus {prop.value}",
        work={"inputs_checked": checked},
    )


def _eval_eventually_silent(
    protocol: PopulationProtocol, prop: EventuallySilent, options: CheckOptions
) -> _Verdict:
    checked = 0
    largest = 0
    for inputs in _input_sweep(protocol, options):
        checked += 1
        ce, size = check_silence(protocol, inputs, node_budget=options.node_budget)
        largest = max(largest, size)
        if ce is not None:
            return _Verdict(
                False,
                f"input {inputs.pretty()} does not fall silent: {ce.reason}",
                witness=ce,
                work={"inputs_checked": checked, "largest_graph": largest},
            )
    return _Verdict(
        True,
        f"every bottom SCC over {checked} inputs is a single silent configuration",
        work={"inputs_checked": checked, "largest_graph": largest},
    )


def _eval_never_reaches(
    protocol: PopulationProtocol, prop: NeverReaches, options: CheckOptions
) -> _Verdict:
    indexed = protocol.indexed()
    if prop.state not in indexed.index:
        raise ValueError(
            f"never-reaches check names unknown state {prop.state!r} "
            f"(states: {', '.join(protocol.states)})"
        )
    counts: List[float] = [0] * indexed.n
    for state, count in protocol.leaders.items():
        counts[indexed.index[state]] += count
    for state in set(protocol.input_mapping.values()):
        counts[indexed.index[state]] = OMEGA
    tree = karp_miller(
        protocol,
        [tuple(counts)],
        node_budget=options.coverability_budget,
        jobs=options.jobs,
    )
    target = [0] * indexed.n
    target[indexed.index[prop.state]] = 1
    covered = tree.covers(target)
    work = {"tree_limits": len(tree.limits)}
    if covered:
        return _Verdict(
            False,
            f"state {prop.state} is coverable from some initial configuration",
            work=work,
        )
    return _Verdict(
        True,
        f"state {prop.state} is uncoverable from every initial configuration "
        f"({len(tree.limits)} limit configurations)",
        work=work,
    )


def _eval_stable_consensus(
    protocol: PopulationProtocol, prop: StableConsensus, options: CheckOptions
) -> _Verdict:
    sizes = range(prop.from_size, options.max_input_size + 1)
    if not sizes:
        raise ValueError(
            f"stable-consensus sweep is empty: from {prop.from_size} "
            f"to {options.max_input_size}"
        )
    counts = {}
    for size in sizes:
        population = stable_slice(protocol, size)
        stable = population.stable1 if prop.value else population.stable0
        counts[size] = len(stable)
        if not stable:
            return _Verdict(
                False,
                f"SC_{prop.value} is empty at population size {size}",
                work={"sizes_checked": len(counts)},
            )
    summary = ", ".join(f"{size}:{count}" for size, count in counts.items())
    return _Verdict(
        True,
        f"SC_{prop.value} non-empty at every size (|SC_{prop.value}| by size: {summary})",
        work={"sizes_checked": len(counts)},
    )


def _eval_usually(
    protocol: PopulationProtocol, prop: UsuallyConsensus, options: CheckOptions
) -> _Verdict:
    inputs = Multiset(dict(prop.inputs))
    result = run_ensemble(
        protocol,
        inputs,
        trials=options.trials,
        max_parallel_time=prop.within,
        seed=options.seed,
        jobs=options.jobs,
        engine="vector",
    )
    rate = result.verdict_probability(prop.value)
    low, high = result.wilson_interval(prop.value)
    work = {"trials": result.trials, "converged": result.converged}
    detail = (
        f"verdict {prop.value} rate {rate:.3f} over {result.trials} seeded trials "
        f"(wilson [{low:.3f}, {high:.3f}], need >= {prop.rate})"
    )
    return _Verdict(rate >= prop.rate, detail, work=work)


def _eval_certified(
    protocol: PopulationProtocol, prop: Certified, options: CheckOptions
) -> _Verdict:
    if prop.section == 4:
        certificate = section4_certificate(protocol, node_budget=options.node_budget)
    else:
        certificate = section5_certificate(protocol, node_budget=options.node_budget)
    if certificate is None:
        return _Verdict(
            False, f"section {prop.section} pipeline produced no checked certificate"
        )
    return _Verdict(
        True,
        f"section {prop.section} certificate: eta <= {certificate.a}",
        work={"certified_a": certificate.a},
    )


def _evaluate(
    protocol: PopulationProtocol, prop: Property, options: CheckOptions
) -> _Verdict:
    if isinstance(prop, Fails):
        inner = _evaluate(protocol, prop.inner, options)
        if inner.passed:
            return _Verdict(
                False,
                f"inner check unexpectedly holds: {inner.detail}",
                work=inner.work,
            )
        if prop.inner.kind in _WITNESS_KINDS and inner.witness is None:
            return _Verdict(
                False,
                "inner check failed without a concrete witness (vacuous failure)",
                work=inner.work,
            )
        return _Verdict(
            True,
            f"refuted as declared: {inner.detail}",
            witness=inner.witness,
            work=inner.work,
        )
    if isinstance(prop, AlwaysConsensusOf):
        return _eval_always_of(protocol, prop, options)
    if isinstance(prop, AlwaysConsensusValue):
        return _eval_always_value(protocol, prop, options)
    if isinstance(prop, EventuallySilent):
        return _eval_eventually_silent(protocol, prop, options)
    if isinstance(prop, NeverReaches):
        return _eval_never_reaches(protocol, prop, options)
    if isinstance(prop, StableConsensus):
        return _eval_stable_consensus(protocol, prop, options)
    if isinstance(prop, UsuallyConsensus):
        return _eval_usually(protocol, prop, options)
    if isinstance(prop, Certified):
        return _eval_certified(protocol, prop, options)
    raise TypeError(f"unknown property {prop!r}")


def run_check(
    protocol: PopulationProtocol, check: Check, options: CheckOptions
) -> CheckOutcome:
    """Evaluate one named check against the protocol."""
    source = format_property(check.prop)
    with get_tracer().span(
        "scenarios.check",
        protocol=protocol.name,
        check=check.name,
        kind=check.prop.kind,
    ) as span:
        verdict = _evaluate(protocol, check.prop, options)
        span.set(passed=verdict.passed)
        for key, value in verdict.work.items():
            span.add(key, value)
    return CheckOutcome(
        name=check.name,
        source=source,
        passed=verdict.passed,
        detail=verdict.detail,
        witness=verdict.witness,
        work=verdict.work,
    )


def run_checks(
    protocol: PopulationProtocol, checks: Sequence[Check], options: CheckOptions
) -> List[CheckOutcome]:
    """Evaluate a whole ``check`` block, in declaration order."""
    return [run_check(protocol, check, options) for check in checks]
