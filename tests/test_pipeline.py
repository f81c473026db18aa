"""Tests for the Section 4 / Section 5 end-to-end pipelines."""

from __future__ import annotations

import pytest

from repro import binary_threshold, double_exp_threshold, flat_threshold
from repro.analysis.stable import stable_verdicts
from repro.bounds import pipeline
from repro.bounds.certificates import SaturationCertificate
from repro.bounds.pipeline import (
    build_stable_sequence,
    section4_certificate,
    section5_certificate,
)
from repro.core.errors import CertificateError, SearchBudgetExceeded
from repro.core.multiset import Multiset
from repro.core.semantics import fire_sequence
from repro.obs import RecordingExporter, set_tracer
from repro.obs.tracer import Tracer
from repro.protocols.leaders import leader_unary_threshold
from repro.reachability.graph import ReachabilityGraph, path_transitions
from repro.reachability.pseudo import input_state


class TestStableSequence:
    def test_lemma_4_2_properties(self, threshold4):
        """IC(i) ->* C_i via the recorded paths, and C_i + x ->* C_(i+1)."""
        seq = build_stable_sequence(threshold4, length=6)
        x = input_state(threshold4)
        for position, config in enumerate(seq.configurations):
            i = seq.input_of(position)
            initial = threshold4.initial_configuration(i)
            assert fire_sequence(initial, seq.cumulative_paths[position]) == config
        for position in range(len(seq.configurations) - 1):
            bridged = fire_sequence(
                seq.configurations[position] + Multiset.singleton(x),
                seq.bridges[position],
            )
            assert bridged == seq.configurations[position + 1]

    def test_sizes_grow_linearly(self, threshold4):
        """|C_i| = |L| + i (the linear control of Lemma 4.4)."""
        seq = build_stable_sequence(threshold4, length=5)
        for position, config in enumerate(seq.configurations):
            assert config.size == seq.input_of(position)

    def test_configurations_are_stable(self, threshold4):
        from repro.analysis.stable import stability_of

        seq = build_stable_sequence(threshold4, length=4)
        for config in seq.configurations:
            assert stability_of(threshold4, config) is not None

    def test_works_with_leaders(self):
        protocol = leader_unary_threshold(2)
        seq = build_stable_sequence(protocol, length=4)
        assert len(seq.configurations) == 4
        for position, config in enumerate(seq.configurations):
            assert config.size == seq.input_of(position) + protocol.leaders.size

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_one_bridge_per_configuration(self, threshold4, length):
        # length 0 used to return no configuration but one bridge
        seq = build_stable_sequence(threshold4, length=length)
        assert len(seq.configurations) == len(seq.cumulative_paths) == len(seq.bridges) == length
        if length:
            assert seq.bridges[-1] == ()

    @pytest.mark.parametrize("max_length", [0, 1])
    def test_section4_needs_two_configurations(self, threshold4, max_length):
        assert section4_certificate(threshold4, max_length=max_length) is None


class TestSection4:
    @pytest.mark.parametrize("eta", [2, 3, 4, 5])
    def test_certificate_found_and_sound(self, eta):
        protocol = binary_threshold(eta)
        certificate = section4_certificate(protocol, max_length=16)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= eta  # soundness: protocol computes x >= eta

    def test_tight_for_small_thresholds(self):
        """For these protocols the first ordered stable pair appears right
        at the threshold, so the certificate is tight."""
        certificate = section4_certificate(binary_threshold(4), max_length=16)
        assert certificate.a == 4

    @pytest.mark.parametrize("eta", [2, 3])
    def test_leader_protocols(self, eta):
        protocol = leader_unary_threshold(eta)
        certificate = section4_certificate(protocol, max_length=12)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= eta

    def test_flat_threshold(self):
        certificate = section4_certificate(flat_threshold(3), max_length=12)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= 3


class TestSection5:
    @pytest.mark.parametrize("eta", [2, 4])
    def test_certificate_found_and_sound(self, eta):
        protocol = binary_threshold(eta)
        certificate = section5_certificate(protocol, max_input=14)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= eta

    def test_pump_is_pseudo_realisable(self):
        from repro.reachability.pseudo import is_potentially_realisable

        certificate = section5_certificate(binary_threshold(4), max_input=14)
        assert is_potentially_realisable(certificate.protocol, certificate.pi)

    def test_saturation_condition_explicit(self):
        certificate = section5_certificate(binary_threshold(4), max_input=14)
        way_point = fire_sequence(
            certificate.protocol.initial_configuration(certificate.a),
            certificate.path_to_saturated,
        )
        level = min(way_point[q] for q in certificate.protocol.states)
        assert level >= 2 * certificate.pi.size

    def test_flat_threshold(self):
        certificate = section5_certificate(flat_threshold(2), max_input=12)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= 2

    def test_negative_cap_rejected(self):
        # cap -1 used to yield a "checked" certificate with B = (-1*2^2)
        with pytest.raises(ValueError, match="cap"):
            section5_certificate(binary_threshold(4), max_input=14, cap=-1)


def reference_section5_attempt(protocol, indexed, a, candidates, cap, node_budget, span):
    """The linear way-point scan that the bisected ``_section5_attempt`` replaced."""
    initial = indexed.encode(protocol.initial_configuration(a))
    try:
        graph = ReachabilityGraph.from_roots(protocol, [initial], node_budget=node_budget)
    except SearchBudgetExceeded:
        return pipeline._BUDGET_EXCEEDED
    verdicts = stable_verdicts(graph)
    for target in sorted(verdicts):
        stable_config = indexed.decode(target)
        reachers = sorted(graph.backward_closure([target]))
        for element in candidates:
            S = frozenset(element.configuration.support()) | frozenset(
                q for q in stable_config.support() if stable_config[q] > cap
            )
            B = Multiset({q: min(c, cap) if q in S else c for q, c in stable_config.items()})
            needed = 2 * element.size
            way_point = None
            for node in reachers:
                if min(node) >= needed:
                    way_point = node
                    break
            if way_point is None:
                continue
            path_a = graph.shortest_path(initial, way_point)
            path_b = graph.shortest_path(way_point, target)
            if path_a is None or path_b is None:
                continue
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


def _traced_section5(protocol, max_input):
    """(certificate, counters of the ``pipeline.section5`` span)."""
    exporter = RecordingExporter()
    tracer = Tracer([exporter])
    previous = set_tracer(tracer)
    try:
        certificate = section5_certificate(protocol, max_input=max_input)
    finally:
        tracer.close()
        set_tracer(previous)
    (span,) = [r for r in exporter.records if r["name"] == "pipeline.section5"]
    return certificate, span["counters"]


class TestSection5Differential:
    """Bisected way-points find the certificates of the linear scan."""

    CASES = {
        "binary:2": (lambda: binary_threshold(2), 14),
        "binary:3": (lambda: binary_threshold(3), 14),
        "binary:4": (lambda: binary_threshold(4), 14),
        "binary:5": (lambda: binary_threshold(5), 14),  # no certificate
        "flat:2": (lambda: flat_threshold(2), 12),
        "flat:3": (lambda: flat_threshold(3), 12),
        "double-exp:1": (lambda: double_exp_threshold(1), 12),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_certificate_and_counters(self, name, monkeypatch):
        build, max_input = self.CASES[name]
        found = _traced_section5(build(), max_input)
        assert (found[0] is None) == (name == "binary:5")
        monkeypatch.setattr(pipeline, "_section5_attempt", reference_section5_attempt)
        assert found == _traced_section5(build(), max_input)
