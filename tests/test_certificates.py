"""Tests for pumping certificates (Lemmas 4.1 and 5.2 as checkable objects)."""

from __future__ import annotations

import dataclasses

import pytest

from repro import binary_threshold
from repro.bounds.certificates import PumpingCertificate, SaturationCertificate
from repro.bounds.pipeline import section4_certificate, section5_certificate
from repro.core.errors import CertificateError
from repro.core.multiset import Multiset
from repro.protocols.leaders import leader_unary_threshold


@pytest.fixture(scope="module")
def valid_s4():
    return section4_certificate(binary_threshold(4), max_length=12)


@pytest.fixture(scope="module")
def valid_s5():
    return section5_certificate(binary_threshold(4), max_input=14)


class TestValidCertificates:
    def test_section4_exists_and_checks(self, valid_s4):
        assert valid_s4 is not None
        report = valid_s4.check()
        assert f"eta <= {valid_s4.a}" in report.conclusion

    def test_section4_bound_sound(self, valid_s4):
        """The certified a must be >= the protocol's true threshold 4."""
        assert valid_s4.a >= 4

    def test_section5_exists_and_checks(self, valid_s5):
        assert valid_s5 is not None
        report = valid_s5.check()
        assert report.a == valid_s5.a
        assert report.b >= 1

    def test_section5_bound_sound(self, valid_s5):
        assert valid_s5.a >= 4

    def test_report_records_proof_method(self, valid_s4):
        report = valid_s4.check()
        assert "coverability" in report.basis_proof


class TestBrokenPumpingCertificates:
    def test_zero_pump_rejected(self, valid_s4):
        broken = dataclasses.replace(valid_s4, b=0)
        with pytest.raises(CertificateError, match="b = 0"):
            broken.check()

    def test_bad_path_rejected(self, valid_s4):
        broken = dataclasses.replace(valid_s4, path_to_stable=valid_s4.path_to_stable * 2 + valid_s4.pump_path)
        with pytest.raises(Exception):  # TransitionNotEnabled or CertificateError
            broken.check()

    def test_wrong_base_rejected(self, valid_s4):
        broken = dataclasses.replace(valid_s4, B=valid_s4.B + Multiset({"2^0": 5}))
        with pytest.raises(CertificateError):
            broken.check()

    def test_unnatural_base_rejected(self, valid_s4):
        # Karp-Miller puts omega on S, so a negative B there used to pass
        state = next(iter(valid_s4.S))
        broken = dataclasses.replace(valid_s4, B=Multiset({state: -1}))
        with pytest.raises(CertificateError, match="not natural"):
            broken.check()

    def test_wrong_support_rejected(self, valid_s4):
        if not valid_s4.S:
            pytest.skip("certificate has empty pump support")
        smaller = frozenset(list(valid_s4.S)[1:])
        broken = dataclasses.replace(valid_s4, S=smaller)
        with pytest.raises(CertificateError):
            broken.check()


class TestBrokenSaturationCertificates:
    def test_zero_pump_rejected(self, valid_s5):
        broken = dataclasses.replace(valid_s5, b=0)
        with pytest.raises(CertificateError, match="b = 0"):
            broken.check()

    def test_unnatural_base_rejected(self, valid_s5):
        state = next(iter(valid_s5.S))
        broken = dataclasses.replace(valid_s5, B=Multiset({state: -1}))
        with pytest.raises(CertificateError, match="not natural"):
            broken.check()

    def test_leaders_rejected(self):
        protocol = leader_unary_threshold(2)
        certificate = SaturationCertificate(
            protocol=protocol,
            a=2,
            b=1,
            B=Multiset({"T": 2}),
            S=frozenset({"T"}),
            path_to_saturated=(),
            path_to_stable=(),
            pi=Multiset(),
        )
        with pytest.raises(CertificateError, match="leaderless"):
            certificate.check()

    def test_insufficient_saturation_rejected(self, valid_s5):
        big_pi = valid_s5.pi + valid_s5.pi * 50
        broken = dataclasses.replace(valid_s5, pi=big_pi)
        with pytest.raises(CertificateError):
            broken.check()

    def test_unnatural_pump_rejected(self, valid_s5):
        protocol = valid_s5.protocol
        # pick a transition consuming a non-input state so b*x + delta < 0
        t = next(
            t for t in protocol.transitions if t.displacement["2^1"] < 0
        )
        broken = dataclasses.replace(valid_s5, pi=Multiset({t: 40}))
        with pytest.raises(CertificateError):
            broken.check()


class TestUnstableBasisRejected:
    def test_fabricated_certificate_with_unstable_base(self):
        """A 'certificate' claiming the transient all-input configuration
        is a basis element must fail the stability probe."""
        protocol = binary_threshold(4)
        certificate = PumpingCertificate(
            protocol=protocol,
            a=2,
            b=1,
            B=Multiset({"2^0": 2}),
            S=frozenset({"2^0"}),
            path_to_stable=(),
            pump_path=(),
        )
        with pytest.raises(CertificateError, match="not a basis element|not supported"):
            certificate.check()
