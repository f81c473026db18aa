"""A2 (ablation) — exhaustive tiny-n busy beaver search.

DESIGN.md §6 promised an enumerator usable for ``n <= 2`` sanity
experiments.  This bench runs it: all 216 deterministic 2-state
protocols, exact verdicts on every input up to 8, and the finding that
**no 2-state protocol computes x >= 3** — i.e. ``BB(2) = 2`` (the
predicates ``x >= 1`` and ``x >= 2`` are trivially true on populations,
so 2 is the floor).  The first non-trivial busy beaver needs 3 states:
``enum[3]#55188`` (index 55187; names are 1-based) decides x >= 3, with
exact verdicts up to input 16 and a Section 4 certificate with a = 3.
E2's 3-state ``binary_threshold(2)`` decides x >= 2, which is trivial.
"""

from __future__ import annotations

import pytest

from repro.bounds.enumeration import busy_beaver_search, protocol_at, threshold_behaviour
from repro.bounds.pipeline import section4_certificate
from repro.fmt import render_table, section

# The first 3-state protocol of the enumeration that decides x >= 3.
FIRST_NONTRIVIAL_INDEX = 55187


def test_a2_search_timing(benchmark):
    result = benchmark(busy_beaver_search, 2, 8)
    assert result.eta == 2


def test_a2_report():
    rows = []
    for n in (1, 2):
        result = busy_beaver_search(n, max_input=8)
        rows.append(
            [
                n,
                result.protocols_enumerated,
                result.threshold_protocols,
                result.eta,
                "yes" if result.certified else "no",
            ]
        )
    print(section("A2 — exhaustive busy beaver search (bounded inputs <= 8)"))
    print(
        render_table(
            ["n", "protocols", "threshold-like", "BB(n) (bounded)", "certified"],
            rows,
        )
    )
    winner = protocol_at(3, FIRST_NONTRIVIAL_INDEX)
    assert threshold_behaviour(winner, max_input=16) == 3
    certificate = section4_certificate(winner, max_length=12)
    assert certificate is not None and certificate.a == 3
    print("finding: BB(2) = 2 — no 2-state protocol decides x >= 3;")
    print(
        f"the first non-trivial threshold needs 3 states: {winner.name} "
        f"(index {FIRST_NONTRIVIAL_INDEX}) decides x >= 3, certificate a = {certificate.a}."
    )
