"""Pumping certificates: finite, machine-checkable witnesses that ``eta <= a``.

Both of the paper's upper-bound arguments end by exhibiting the same
kind of object: an input ``a``, a pump amount ``b >= 1``, a basis
element ``(B, S)`` of the stable set ``SC``, and evidence that

    ``IC(a)`` reaches ``B + D_a`` with ``D_a in N^S``, and the pump
    ``b`` adds ``D_b in N^S`` repeatably,

which forces ``eta <= a`` for any threshold ``eta`` the protocol might
compute: otherwise ``B + D_a + lambda*D_b`` would stay in ``SC_0`` for
every ``lambda``, so the protocol would reject inputs of unbounded
size, contradicting ``x >= eta``.

* :class:`PumpingCertificate` — the Section 4 shape (Lemma 4.1, in its
  sound *contextual* form): the pump is an explicit firing sequence
  from ``C_a + b*x`` to ``C_a + D_b``.  Valid for protocols with or
  without leaders.
* :class:`SaturationCertificate` — the Section 5 shape (Lemma 5.2):
  the pump is a *pseudo-firing* ``IC(b) ==pi==> D_b`` plus a
  ``2|pi|``-saturated way-point ``D`` on the route to ``B + D_a``
  (saturation converts the pseudo-firing into genuine firings by
  Lemma 5.1(ii)).  Leaderless only (it uses ``IC(a + lambda b) =
  IC(a) + lambda IC(b)``).

``check()`` verifies every finite condition *exactly* by firing the
recorded sequences, and *proves* the one unbounded condition —
``B + N^S`` really lies inside ``SC`` — by an exact Karp-Miller
coverability analysis (no output-flipping state is coverable from the
omega-abstracted family root).  A passing certificate is therefore a
genuine proof that ``eta <= a``; the tests feed both valid and
deliberately-broken certificates through ``check()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, List, Optional, Sequence, Tuple

from ..core.errors import CertificateError
from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol, Transition
from ..core.semantics import displacement_of, fire_sequence
from ..analysis.basis import prove_basis_element
from ..reachability.pseudo import input_state

__all__ = ["PumpingCertificate", "SaturationCertificate", "CertificateReport"]

State = Hashable


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of checking a certificate."""

    conclusion: str
    a: int
    b: int
    basis_proof: str
    notes: Tuple[str, ...] = ()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateError(message)


@dataclass(frozen=True)
class PumpingCertificate:
    """Lemma 4.1-style certificate (contextual pump; leaders allowed).

    Attributes
    ----------
    a:
        The input being certified: conclusion is ``eta <= a``.
    b:
        The pump amount (``>= 1``).
    B, S:
        The claimed basis element of ``SC``.
    path_to_stable:
        Firing sequence with ``IC(a) --path--> C_a`` where
        ``C_a = B + D_a``, ``D_a in N^S``.
    pump_path:
        Firing sequence with ``C_a + b*x --pump--> C_a + D_b``,
        ``D_b in N^S`` (the contextual version of Lemma 4.1(2); it
        suffices for the pumping argument by monotonicity).
    """

    protocol: PopulationProtocol
    a: int
    b: int
    B: Multiset
    S: FrozenSet[State]
    path_to_stable: Tuple[Transition, ...]
    pump_path: Tuple[Transition, ...]

    def check(self, node_budget: int = 2_000_000) -> CertificateReport:
        """Verify the certificate; raises :class:`CertificateError` on failure."""
        protocol = self.protocol
        _require(self.b >= 1, "pump amount b must be >= 1 (b = 0 certifies nothing)")
        _require(self.B.is_natural, f"B = {self.B.pretty()} is not natural")
        x = input_state(protocol)

        initial = protocol.initial_configuration(self.a)
        stable_config = fire_sequence(initial, self.path_to_stable)
        d_a = stable_config - self.B
        _require(d_a.is_natural, f"C_a - B = {d_a.pretty()} is not natural")
        _require(d_a.supported_on(self.S), f"D_a = {d_a.pretty()} is not supported on S")

        pumped_start = stable_config + Multiset.singleton(x, self.b)
        pumped_end = fire_sequence(pumped_start, self.pump_path)
        d_b = pumped_end - stable_config
        _require(d_b.is_natural, f"pump displacement {d_b.pretty()} is not natural")
        _require(d_b.supported_on(self.S), f"D_b = {d_b.pretty()} is not supported on S")

        # The unbounded part: (B, S) is a basis element of SC.  SC is
        # the union SC_0 | SC_1, so the pumped family must be *stable*,
        # with a common verdict; proven by coverability analysis.
        stable_as = _stability_verdict(protocol, self.B, self.S, node_budget)
        _require(
            stable_as is not None,
            "B + N^S contains unstable configurations; "
            "(B, S) is not a basis element of SC",
        )
        return CertificateReport(
            conclusion=f"eta <= {self.a} for any threshold predicate this protocol computes",
            a=self.a,
            b=self.b,
            basis_proof="Karp-Miller coverability analysis of B + N^S",
            notes=(f"basis element proven: every member of B + N^S is {stable_as}-stable",),
        )


@dataclass(frozen=True)
class SaturationCertificate:
    """Lemma 5.2-style certificate (pseudo-firing pump; leaderless only).

    Attributes
    ----------
    a, b:
        Conclusion ``eta <= a``; pump input ``b >= 1``.
    B, S:
        The claimed basis element of ``SC``.
    path_to_saturated:
        Firing sequence ``IC(a) --...--> D``.
    path_to_stable:
        Firing sequence ``D --...--> B + D_a`` with ``D_a in N^S``.
    pi:
        Multiset of transitions with ``IC(b) ==pi==> D_b in N^S``; the
        way-point ``D`` must be ``2|pi|``-saturated so the pseudo-pump
        is realisable in context (Lemma 5.1(ii)).
    """

    protocol: PopulationProtocol
    a: int
    b: int
    B: Multiset
    S: FrozenSet[State]
    path_to_saturated: Tuple[Transition, ...]
    path_to_stable: Tuple[Transition, ...]
    pi: Multiset

    def check(self, node_budget: int = 2_000_000) -> CertificateReport:
        """Verify the certificate; raises :class:`CertificateError` on failure."""
        protocol = self.protocol
        _require(protocol.is_leaderless, "Lemma 5.2 certificates require a leaderless protocol")
        _require(self.b >= 1, "pump amount b must be >= 1 (b = 0 certifies nothing)")
        _require(self.B.is_natural, f"B = {self.B.pretty()} is not natural")
        x = input_state(protocol)

        initial = protocol.initial_configuration(self.a)
        saturated = fire_sequence(initial, self.path_to_saturated)
        pump_size = self.pi.size
        level = min(saturated[q] for q in protocol.states)
        _require(
            level >= 2 * pump_size,
            f"way-point D is only {level}-saturated, needs 2|pi| = {2 * pump_size}",
        )

        stable_config = fire_sequence(saturated, self.path_to_stable)
        d_a = stable_config - self.B
        _require(d_a.is_natural, f"(B + D_a) - B = {d_a.pretty()} is not natural")
        _require(d_a.supported_on(self.S), f"D_a = {d_a.pretty()} is not supported on S")

        d_b = Multiset.singleton(x, self.b) + displacement_of(self.pi)
        _require(d_b.is_natural, f"IC(b) + Delta_pi = {d_b.pretty()} is not natural")
        _require(d_b.supported_on(self.S), f"D_b = {d_b.pretty()} is not supported on S")

        stable_as = _stability_verdict(protocol, self.B, self.S, node_budget)
        _require(
            stable_as is not None,
            "B + N^S contains unstable configurations; "
            "(B, S) is not a basis element of SC",
        )
        return CertificateReport(
            conclusion=f"eta <= {self.a} for any threshold predicate this protocol computes",
            a=self.a,
            b=self.b,
            basis_proof="Karp-Miller coverability analysis of B + N^S",
            notes=(
                f"|pi| = {pump_size}, way-point saturation level {level}",
                f"basis element proven: every member of B + N^S is {stable_as}-stable",
            ),
        )


def _stability_verdict(
    protocol: PopulationProtocol,
    B: Multiset,
    S,
    node_budget: int,
) -> Optional[int]:
    """``b`` when ``B + N^S`` is *proven* to lie inside ``SC_b``.

    Membership in SC allows either verdict, but all points of one basis
    element share it; we detect the common verdict by proving ``b = 0``
    then ``b = 1`` via coverability (see
    :func:`repro.analysis.basis.prove_basis_element`).
    """
    for b in (0, 1):
        if prove_basis_element(protocol, B, S, b, node_budget=min(node_budget, 200_000)):
            return b
    return None
