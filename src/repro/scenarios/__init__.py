"""Scenario library: curated protocol families + a property-check DSL.

``repro.scenarios`` packages protocol families from *outside* the
source paper's constructions (approximate majority, double-exponential
thresholds, leader protocols) together with declarative ``check``
blocks asserting what each family does — and, for approximate
majority, what it provably does *not* do.  The DSL compiles onto the
existing exact-verification, coverability, stable-slice, certificate,
and ensemble machinery; see :mod:`repro.scenarios.dsl` for the grammar
and :mod:`repro.scenarios.checks` for the compilation.
"""

from .checks import CheckOptions, CheckOutcome, run_check, run_checks
from .dsl import (
    AlwaysConsensusOf,
    AlwaysConsensusValue,
    Certified,
    Check,
    EventuallySilent,
    Fails,
    NeverReaches,
    Property,
    ScenarioSyntaxError,
    StableConsensus,
    UsuallyConsensus,
    format_checks,
    format_property,
    parse_checks,
)
from .library import SCENARIOS, Scenario, ScenarioInstance, get_scenario, scenario_names

__all__ = [
    "ScenarioSyntaxError",
    "Property",
    "AlwaysConsensusOf",
    "AlwaysConsensusValue",
    "EventuallySilent",
    "NeverReaches",
    "StableConsensus",
    "UsuallyConsensus",
    "Certified",
    "Fails",
    "Check",
    "parse_checks",
    "format_checks",
    "format_property",
    "CheckOptions",
    "CheckOutcome",
    "run_check",
    "run_checks",
    "Scenario",
    "ScenarioInstance",
    "SCENARIOS",
    "get_scenario",
    "scenario_names",
]
