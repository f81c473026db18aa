"""Succinct (binary) threshold protocols: ``O(log eta)`` states.

Two constructions live here:

* :func:`example_2_1_binary` — the paper's ``P'_k`` verbatim: states
  ``{0, 2^0, ..., 2^k}``, doubling transitions
  ``2^i, 2^i -> 0, 2^(i+1)`` and the absorbing accepting state ``2^k``.
  It computes ``x >= 2^k`` with ``k + 2`` states (the paper's prose
  says ``k + 1``; the displayed state set ``{0, 2^0, ..., 2^k}`` has
  ``k + 2`` elements — we implement the displayed set and report the
  true count).

* :func:`binary_threshold` — a generalisation to *arbitrary*
  thresholds ``eta`` with at most ``2*floor(log2 eta) + 3`` states,
  in the spirit of the succinct protocols of Blondin, Esparza &
  Jaax [12] that witness ``BB(n) in Omega(2^n)`` (Theorem 2.2).

The general construction.  Write ``eta`` in binary with most
significant bit ``k``.  Agents hold either nothing (``zero``), a power
of two (``2^i``, obtained by combining equal powers), or a *collected
prefix* of ``eta`` (``c_j`` = the number formed by bits ``k..j`` of
``eta``).  Invariant: the total value across agents equals the input
``x`` (until acceptance).  Rules:

* combine:  ``2^i, 2^i -> 2^(i+1), zero``           (for ``i < k``)
* collect:  ``c_(j), 2^(j-1) -> c_(j-1), zero``     (when bit ``j-1`` of ``eta`` is 1)
* accept on overflow: a collector holding prefix ``c_j`` that meets a
  power ``2^m`` with ``m >= j`` proves ``x > eta``
  (``prefix_j + 2^m >= prefix_j + 2^j > eta``) — both become accepting;
* accept on completion: the collector that has collected every bit of
  ``eta`` holds exactly ``eta`` and converts everybody;
* two collectors prove ``x >= 2^(k+1) > eta`` — accepting.

Soundness: every accepting rule fires only when the *pair's* combined
value already certifies ``x >= eta`` (total value is invariant).
Completeness: in any non-accepting configuration with total value
``>= eta``, either two equal powers exist (combine), or the collector's
next needed bit is present (collect), or an overflow pair exists — a
counting argument shows stuck configurations have value ``< eta``.
The test suite verifies the protocol exhaustively for a battery of
thresholds and all inputs up to beyond ``eta``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol, Transition

__all__ = ["binary_threshold", "example_2_1_binary", "binary_state_count"]

ZERO = "zero"


def _power(i: int) -> str:
    return f"2^{i}"


def _collector(j: int) -> str:
    return f"c{j}"


def binary_threshold(eta: int, variable: str = "x") -> PopulationProtocol:
    """A leaderless protocol for ``x >= eta`` with ``O(log eta)`` states.

    See the module docstring for the construction.  The returned
    protocol is deterministic; call ``.completed()`` for the formally
    complete version (identity transitions added).

    Parameters
    ----------
    eta:
        Threshold, at least 1.
    variable:
        Name of the unique input variable.
    """
    if eta < 1:
        raise ValueError(f"threshold must be >= 1, got {eta}")
    k = eta.bit_length() - 1
    bits = [(eta >> j) & 1 for j in range(k + 1)]  # bits[j] = b_j

    # state_at_level[j] = the state of an agent holding prefix_j
    # (bits k..j of eta, as an integer).  Levels with b_(j) = 0 merge
    # with the level above; level k is the plain power 2^k.
    state_at_level: Dict[int, str] = {k: _power(k)}
    for j in range(k - 1, -1, -1):
        state_at_level[j] = _collector(j) if bits[j] else state_at_level[j + 1]

    accept = state_at_level[0]

    # Lowest level represented by each distinct collector state.
    lowest_level: Dict[str, int] = {}
    for j in range(k, -1, -1):
        lowest_level[state_at_level[j]] = j

    collectors = list(dict.fromkeys(state_at_level[j] for j in range(k, -1, -1)))

    transitions: List[Transition] = []
    # combine equal powers
    for i in range(k):
        transitions.append(Transition(_power(i), _power(i), _power(i + 1), ZERO))
    # collector rules
    for s in collectors:
        j_lo = lowest_level[s]
        if s == accept:
            continue  # handled below: accept converts everything
        # collect the next needed bit of eta
        transitions.append(Transition(s, _power(j_lo - 1), state_at_level[j_lo - 1], ZERO))
        # overflow: prefix + 2^m > eta for any m >= j_lo
        for m in range(j_lo, k + 1):
            transitions.append(Transition(s, _power(m), accept, accept))
        # two collectors hold >= 2^(k+1) > eta together
        for other in collectors:
            if other != accept:
                transitions.append(Transition(s, other, accept, accept))

    states: List[str] = [_power(i) for i in range(k + 1)]
    states.extend(s for s in collectors if s not in states)
    needs_zero = any(ZERO in (t.p2, t.q2) for t in transitions)
    if needs_zero:
        states.append(ZERO)
    # accept converts every other agent (and absorbs stray accepts)
    for s in states:
        transitions.append(Transition(accept, s, accept, accept))

    # Deduplicate, keeping the FIRST rule for each unordered pre-pair
    # so the protocol stays deterministic.  Overlaps only occur between
    # equivalent accepting rules, so the choice is immaterial.
    by_pre: Dict[Tuple[str, str], Transition] = {}
    for t in transitions:
        by_pre.setdefault((t.p, t.q), t)

    return PopulationProtocol(
        states=tuple(states),
        transitions=tuple(by_pre.values()),
        leaders=Multiset(),
        input_mapping={variable: _power(0)},
        output={s: 1 if s == accept else 0 for s in states},
        name=f"binary_threshold(eta={eta})",
    )


def example_2_1_binary(k: int) -> PopulationProtocol:
    """The paper's ``P'_k``: ``x >= 2^k`` over ``{0, 2^0, ..., 2^k}``.

    For ``k >= 1`` this coincides with ``binary_threshold(2^k)`` up to
    state names: doubling transitions plus the absorbing accepting
    state ``2^k``.  Exposed separately so experiment E1 can report the
    exact family of Example 2.1.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    protocol = binary_threshold(2**k)
    return protocol.renamed({}, name=f"P'_{k} (Example 2.1)")


def binary_state_count(eta: int) -> int:
    """Number of states of :func:`binary_threshold` without building it.

    Equals ``(k+1) + (popcount(eta) - 1) + [a zero state is needed]``
    where ``k = floor(log2 eta)`` — at most ``2k + 3``.
    """
    k = eta.bit_length() - 1
    popcount = bin(eta).count("1")
    needs_zero = k >= 1  # any combine or collect rule produces `zero`
    return (k + 1) + (popcount - 1) + (1 if needs_zero else 0)
