"""Tests for the comprehensive analysis report (and its CLI command).

Golden regeneration
-------------------

``tests/golden/analyze_reports.json`` pins the full ``full_report``
text of three ``analyze`` workloads, computed with the analysis cache
disabled.  The file carries a ``version`` field checked against
:data:`REPORT_GOLDEN_VERSION` below, mirroring ``KM_GOLDEN_VERSION`` in
``tests/test_coverability_sharded.py``: whenever a report deliberately
changes (a new section, a different basis or certificate search),
bump ``REPORT_GOLDEN_VERSION`` here and regenerate the goldens with::

    PYTHONPATH=src:. python -c \
        "from tests.test_report import regenerate_golden; regenerate_golden()"

then eyeball the diff: every changed line is a changed answer and
should be explainable from the change that caused it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import (
    binary_threshold,
    counting,
    flat_threshold,
    leroux_leader_threshold,
    majority_protocol,
)
from repro.bounds.report import full_report
from repro.cache import cache_disabled
from repro.cli import main
from repro.core.predicates import majority
from repro.protocols.leaders import leader_unary_threshold

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "analyze_reports.json")
REPORT_GOLDEN_VERSION = 1

# name -> (protocol constructor, full_report keyword arguments).  The
# flat:6 key keeps the command the end-to-end benchmark runs; its
# ``--quotient`` is accepted and ignored.
GOLDEN_REPORTS = {
    "flat:6 --quotient": (lambda: flat_threshold(6), {}),
    "binary:24": (lambda: binary_threshold(24), {}),
    "leroux-leader:2": (lambda: leroux_leader_threshold(2), {}),
}


def _golden_report(name):
    build, kwargs = GOLDEN_REPORTS[name]
    with cache_disabled():
        return full_report(build(), **kwargs)


def regenerate_golden():
    """Rewrite tests/golden/analyze_reports.json (see module docstring)."""
    data = {
        "version": REPORT_GOLDEN_VERSION,
        "reports": {name: _golden_report(name) for name in GOLDEN_REPORTS},
    }
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data


class TestFullReport:
    def test_threshold_report_sections(self, threshold4):
        text = full_report(threshold4, counting(4), max_input=7)
        for heading in (
            "Structure",
            "Verification",
            "VERIFIED",
            "Convergence classification",
            "Linear invariants",
            "Stable-set bases",
            "Pumping certificates",
            "Expected convergence time",
        ):
            assert heading in text, heading

    def test_reports_failure(self, threshold4):
        text = full_report(threshold4, counting(5), max_input=7)
        assert "FAILS" in text
        assert (
            "  trace: (4*2^0) -> (2*2^0, 2^1, zero) -> (2*2^1, 2*zero) -> "
            "(2^2, 3*zero) -> (2*2^2, 2*zero) -> (3*2^2, zero) -> (4*2^2)\n"
        ) in text

    def test_without_predicate(self, threshold4):
        text = full_report(threshold4, max_input=6)
        assert "Verification" not in text
        assert "Structure" in text

    def test_leader_protocol_skips_section5(self):
        protocol = leader_unary_threshold(2)
        text = full_report(protocol, counting(2), max_input=5)
        assert "Section 5 route: not applicable" in text
        assert "Section 4 route: eta <=" in text

    def test_multivariable_protocol(self):
        protocol = majority_protocol()
        text = full_report(protocol, majority(), max_input=6)
        assert "multi-variable" in text
        assert "VERIFIED" in text

    def test_certified_bound_dominates_threshold(self, threshold4):
        text = full_report(threshold4, counting(4), max_input=8)
        assert "Section 4 route: eta <= 4" in text


class TestAnalyzeCommand:
    def test_cli_analyze(self, capsys):
        assert main(["analyze", "binary:3", "x >= 3", "--max-input", "6"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out and "Pumping certificates" in out

    def test_cli_analyze_without_predicate(self, capsys):
        assert main(["analyze", "majority"]) == 0
        assert "Structure" in capsys.readouterr().out


class TestGoldenReports:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def test_version_pinned(self, golden):
        assert golden["version"] == REPORT_GOLDEN_VERSION, (
            "analyze report golden version drifted: if a report changed "
            "deliberately, bump REPORT_GOLDEN_VERSION and regenerate "
            "tests/golden/analyze_reports.json (see module docstring)"
        )
        assert set(golden["reports"]) == set(GOLDEN_REPORTS)

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_report_matches_golden(self, name, golden):
        assert _golden_report(name) == golden["reports"][name], (
            f"the analyze report of {name} drifted from the committed golden: "
            "if intended, bump REPORT_GOLDEN_VERSION and regenerate (see "
            "module docstring)"
        )
