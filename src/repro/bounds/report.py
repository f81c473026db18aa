"""One-call comprehensive analysis: everything this library knows.

:func:`full_report` runs the whole toolbox against one protocol (and,
optionally, the predicate it claims to compute) and renders a single
text report:

* structure: states, transitions, leaders, determinism, coverability;
* Karp–Miller coverability: which states stay bounded for all inputs;
* exact verification against the predicate (when given);
* convergence classification (silent / live / livelock) per input;
* linear invariants (the conservation laws);
* the Lemma 5.4 saturation sequence (leaderless protocols);
* stable-set slices and the inferred basis;
* both pumping certificates with their ``eta <= a`` conclusions;
* exact expected convergence time for a sample input.

This is the ``python -m repro analyze`` command and the "show me
everything" entry point for interactive exploration.  Every section
degrades gracefully (reports the reason) when a sub-analysis does not
apply — e.g. Section 5 machinery on protocols with leaders.

Every section runs inside a :mod:`repro.obs` span, so ``repro analyze
--trace out.json`` produces a Perfetto-loadable flame graph whose
top-level children are the report sections and whose leaves are the
underlying searches (Karp–Miller, Pottier, stable slices, ...).
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.basis import infer_basis
from ..analysis.expected_time import expected_convergence_time
from ..analysis.invariants import invariant_basis
from ..analysis.saturation import saturation_sequence
from ..analysis.verification import classify_input, format_trace, verify_protocol
from ..core.errors import ReproError, SearchBudgetExceeded
from ..core.predicates import Predicate
from ..core.protocol import PopulationProtocol
from ..fmt import render_table, section
from ..obs import get_tracer
from ..parallel import TaskEnvelope, run_tasks
from ..reachability.coverability import OMEGA, karp_miller
from ..reachability.pseudo import input_state
from .pipeline import section4_certificate, section5_certificate

__all__ = ["full_report"]


def _classify_row(task: TaskEnvelope) -> List[object]:
    """Classify one input size; always returns a printable table row."""
    protocol, i, node_budget = task.payload
    try:
        result = classify_input(protocol, i, node_budget=node_budget)
        return [i, result.convergence.value, result.verdict, result.bottom_scc_count]
    except ReproError as error:
        return [i, f"({error})", "-", "-"]


def full_report(
    protocol: PopulationProtocol,
    predicate: Optional[Predicate] = None,
    max_input: int = 8,
    node_budget: int = 500_000,
    jobs: int = 1,
    checkpoint_interval: Optional[int] = None,
) -> str:
    """Render the comprehensive analysis report (see module docstring).

    ``jobs`` and ``checkpoint_interval`` thread through to the
    Karp–Miller frontier engine; neither changes the report.
    """
    lines: List[str] = []
    out = lines.append
    tracer = get_tracer()

    with tracer.span("analyze", protocol=protocol.name, max_input=max_input):
        # --------------------------------------------------------- structure
        with tracer.span("analyze.structure"):
            out(section(f"Structure — {protocol.name}"))
            covered = protocol.coverable_states()
            out(f"states: {protocol.num_states} ({len(covered)} coverable)")
            out(f"transitions: {protocol.num_transitions} "
                f"({'deterministic' if protocol.is_deterministic else 'nondeterministic'}, "
                f"{'complete' if protocol.is_complete else 'incomplete — identities implicit'})")
            out("leaders: " + (protocol.leaders.pretty() if not protocol.is_leaderless else "none (leaderless)"))
            out("inputs: " + ", ".join(f"{v} -> {s}" for v, s in protocol.input_mapping.items()))

        single_input = len(protocol.input_mapping) == 1

        # ------------------------------------------------------ coverability
        with tracer.span("analyze.coverability"):
            out(section("Coverability (Karp–Miller, all inputs at once)"))
            if single_input:
                try:
                    indexed = protocol.indexed()
                    x_index = indexed.index[input_state(protocol)]
                    root = tuple(
                        OMEGA if i == x_index else (protocol.leaders[s] if not protocol.is_leaderless else 0)
                        for i, s in enumerate(indexed.states)
                    )
                    tree = karp_miller(
                        protocol,
                        [root],
                        node_budget=min(node_budget, 50_000),
                        jobs=jobs,
                        checkpoint_interval=checkpoint_interval,
                    )
                    bounded = [s for i, s in enumerate(indexed.states) if tree.place_bounded(i)]
                    out(f"tree: {len(tree.nodes)} nodes, {len(tree.limits)} limit configurations")
                    if bounded:
                        out("bounded states (finitely many agents for every input): "
                            + ", ".join(sorted(map(str, bounded))))
                    else:
                        out("no state is bounded: every state can hold unboundedly many agents")
                except (ReproError, SearchBudgetExceeded) as error:
                    out(f"not computed: {error}")
            else:
                out("(multi-variable protocol: run karp_miller with an explicit omega root)")

        # ------------------------------------------------------ verification
        if predicate is not None:
            with tracer.span("analyze.verification"):
                out(section(f"Verification against: {predicate}"))
                try:
                    report = verify_protocol(
                        protocol, predicate, max_input_size=max_input, node_budget=node_budget
                    )
                    if report.ok:
                        out(f"VERIFIED on all {report.inputs_checked} inputs up to size {max_input} "
                            "(exact bottom-SCC analysis)")
                    else:
                        ce = report.counterexample
                        out(f"FAILS on {ce.inputs.pretty()}: {ce.reason}")
                        out(f"  trace: {format_trace(ce.trace)}")
                except ReproError as error:
                    out(f"verification not applicable: {error}")

        # ------------------------------------------------------- convergence
        with tracer.span("analyze.convergence", jobs=jobs):
            out(section("Convergence classification"))
            if single_input:
                sample_inputs = list(range(2, min(max_input, 6) + 1))
                envelopes = run_tasks(
                    _classify_row,
                    [(protocol, i, node_budget) for i in sample_inputs],
                    jobs=jobs,
                    label="analyze.convergence",
                )
                rows = [envelope.value for envelope in envelopes]
                out(render_table(["input", "convergence", "verdict", "bottom SCCs"], rows))
            else:
                out("(multi-variable protocol: per-input classification via classify_input)")

        # -------------------------------------------------------- invariants
        with tracer.span("analyze.invariants"):
            out(section("Linear invariants (conserved quantities)"))
            for weights in invariant_basis(protocol):
                shown = {str(q): str(w) for q, w in weights.items() if w != 0}
                out(f"  {shown}")

        # -------------------------------------------------------- saturation
        if single_input and protocol.is_leaderless:
            with tracer.span("analyze.saturation"):
                out(section("Saturation sequence (Lemma 5.4, constructive)"))
                try:
                    saturated = saturation_sequence(protocol)
                    out(f"1-saturated from IC({saturated.input_size}) in {saturated.rounds} rounds "
                        f"(|sigma| = {saturated.sequence.length}, "
                        f"saturation level {saturated.saturation_level()})")
                except ReproError as error:
                    out(f"not computed: {error}")

        # ------------------------------------------------------ stable bases
        if single_input:
            with tracer.span("analyze.stable_bases"):
                out(section("Stable-set bases (inferred from slices 2..4, pump-checked)"))
                for b in (0, 1):
                    try:
                        basis = infer_basis(protocol, b=b, slice_sizes=[2, 3, 4], node_budget=node_budget)
                        out(f"SC_{b}: {len(basis)} elements, max norm "
                            f"{max((e.norm for e in basis), default=0)}")
                    except ReproError as error:
                        out(f"SC_{b}: not computed ({error})")

        # ------------------------------------------------------ certificates
        if single_input:
            with tracer.span("analyze.certificates"):
                out(section("Pumping certificates (eta <= a, machine-checked)"))
                try:
                    cert4 = section4_certificate(protocol, max_length=max_input + 6, node_budget=node_budget)
                    if cert4 is not None:
                        out(f"Section 4 route: eta <= {cert4.a} (pump b = {cert4.b})")
                    else:
                        out("Section 4 route: no certificate within the search horizon")
                except ReproError as error:
                    out(f"Section 4 route: {error}")
                if protocol.is_leaderless:
                    try:
                        cert5 = section5_certificate(protocol, max_input=max_input + 6, node_budget=node_budget)
                        if cert5 is not None:
                            out(f"Section 5 route: eta <= {cert5.a} "
                                f"(pump b = {cert5.b}, |pi| = {cert5.pi.size})")
                        else:
                            out("Section 5 route: no certificate within the search horizon")
                    except ReproError as error:
                        out(f"Section 5 route: {error}")
                else:
                    out("Section 5 route: not applicable (protocol has leaders)")

        # ----------------------------------------------------- expected time
        if single_input:
            with tracer.span("analyze.expected_time"):
                out(section("Expected convergence time (exact, Markov chain)"))
                sample = min(max_input, 6)
                try:
                    expectation = expected_convergence_time(protocol, sample, node_budget=20_000)
                    out(f"input {sample}: E[interactions] = {expectation.interactions:.2f} "
                        f"({expectation.parallel_time:.2f} parallel time)")
                except ReproError as error:
                    out(f"not computable: {error}")

    return "\n".join(lines)
