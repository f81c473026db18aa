"""The flat threshold protocol ``P_k`` of Example 2.1 (and its generalisation).

``P_k`` computes ``x >= 2^k`` with ``2^k + 1`` states: each agent
stores a number, initially 1; when two agents meet, one stores the
(capped) sum and the other stores 0; once an agent reaches the cap,
the accepting state spreads to everybody.

The construction works verbatim for an arbitrary threshold ``eta``
(not only powers of two), which is how :func:`flat_threshold` exposes
it: ``eta + 1`` states for ``x >= eta``.  It is the natural *unary*
baseline against which the succinct protocols of
:mod:`repro.protocols.threshold_binary` are measured — the succinctness
gap between the two is precisely the subject of the paper.
"""

from __future__ import annotations

from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol, Transition

__all__ = ["flat_threshold", "example_2_1_flat"]


def flat_threshold(eta: int, variable: str = "x") -> PopulationProtocol:
    """The protocol ``P_eta``: ``x >= eta`` with ``eta + 1`` states.

    States are the integers ``0 .. eta``; ``I(x) = 1``; ``O(a) = 1``
    iff ``a = eta``; transitions:

    * ``a, b -> 0, a + b``  when ``a + b < eta``;
    * ``a, b -> eta, eta``  when ``a + b >= eta``.

    Exactly Example 2.1 of the paper with ``eta = 2^k``; the protocol
    is deterministic and complete by construction.

    Parameters
    ----------
    eta:
        The threshold; must be at least 1.
    variable:
        Name of the unique input variable (default ``"x"``).
    """
    if eta < 1:
        raise ValueError(f"threshold must be >= 1, got {eta}")
    states = tuple(range(eta + 1))
    transitions = []
    for a in states:
        for b in states:
            if a > b:
                continue
            if a + b >= eta:
                transitions.append(Transition(a, b, eta, eta))
            else:
                transitions.append(Transition(a, b, 0, a + b))
    protocol = PopulationProtocol(
        states=states,
        transitions=tuple(transitions),
        leaders=Multiset(),
        input_mapping={variable: 1},
        output={a: 1 if a == eta else 0 for a in states},
        name=f"flat_threshold(eta={eta})",
    )
    return protocol


def example_2_1_flat(k: int) -> PopulationProtocol:
    """The paper's ``P_k`` verbatim: ``x >= 2^k`` with ``2^k + 1`` states."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    protocol = flat_threshold(2**k)
    return protocol.renamed({}, name=f"P_{k} (Example 2.1)")
