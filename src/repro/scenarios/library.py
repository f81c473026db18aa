"""The curated scenario registry.

Three families, chosen to stress the toolkit from directions the source
paper's own constructions never exercise:

* ``approx-majority`` — the 3-state Angluin-Aspnes-Eisenstat protocol:
  *nondeterministic*, and famously not a stable majority computer; its
  wrong-consensus behaviour is declared with a ``fails`` check that
  demands a concrete witness trace.
* ``double-exp`` — the Czerner 2022 power-combining family
  (arXiv:2204.02115): tiny instances deciding double-exponentially
  growing thresholds, exactly verifiable and Section-4 certifiable.
* ``leroux-leader`` — Leroux-style single-leader thresholds
  (arXiv:2109.15171), carrying a genuine coverability safety invariant
  (``never reaches L2``: the double-leader poison state).

Each :class:`Scenario` lists its instances smallest-first; the CLI's
``scenarios check`` smoke mode runs just the first one.  The ``check``
blocks are stored as DSL *text* and parsed at registry-build time, so
the library doubles as a living test of the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol
from ..protocols.approx_majority import approximate_majority
from ..protocols.double_exp import double_exp_threshold
from ..protocols.leroux import leroux_leader_threshold
from .checks import CheckOptions
from .dsl import Check, parse_checks

__all__ = ["Scenario", "ScenarioInstance", "SCENARIOS", "get_scenario", "scenario_names"]


@dataclass(frozen=True)
class ScenarioInstance:
    """One concrete protocol of a family, with its sweep bounds."""

    label: str
    factory: Callable[[], PopulationProtocol]
    max_input_size: int
    min_input_size: int
    checks_source: str
    checks: Tuple[Check, ...]

    def build(self) -> PopulationProtocol:
        return self.factory()

    def options(self, **overrides) -> CheckOptions:
        """Check options for this instance, with keyword overrides."""
        base = dict(
            max_input_size=self.max_input_size,
            min_input_size=self.min_input_size,
        )
        base.update(overrides)
        return CheckOptions(**base)


@dataclass(frozen=True)
class Scenario:
    """A protocol family with declared property checks."""

    name: str
    title: str
    description: str
    references: Tuple[str, ...]
    instances: Tuple[ScenarioInstance, ...]
    conformance_input: Multiset

    @property
    def smallest(self) -> ScenarioInstance:
        return self.instances[0]

    def instance(self, label: str) -> ScenarioInstance:
        for candidate in self.instances:
            if candidate.label == label:
                return candidate
        raise KeyError(
            f"scenario {self.name!r} has no instance {label!r} "
            f"(have: {', '.join(i.label for i in self.instances)})"
        )


def _instance(
    label: str,
    factory: Callable[[], PopulationProtocol],
    max_input_size: int,
    min_input_size: int,
    checks_source: str,
) -> ScenarioInstance:
    return ScenarioInstance(
        label=label,
        factory=factory,
        max_input_size=max_input_size,
        min_input_size=min_input_size,
        checks_source=checks_source,
        checks=parse_checks(checks_source),
    )


_APPROX_MAJORITY_CHECKS = """\
check {
    # Unanimous inputs are handled correctly ...
    CorrectWhenUnopposed = always consensus 1 when y = 0
    CorrectWhenNoY = always consensus 0 when x = 0
    # ... but contested Y-majorities may stabilise to the WRONG
    # consensus: the refutation must exhibit a concrete trace into an
    # all-N bottom SCC.
    WrongConsensusReachable = fails always consensus 1 when x - y >= 1 and y >= 1
    EventuallySilent = eventually silent
    # Statistically the protocol does approximate majority: a clear
    # majority wins most seeded vector-engine runs.
    UsuallyRight = usually consensus 1 given x=14,y=6 within 400 rate >= 0.6
}
"""

_DOUBLE_EXP_K1_CHECKS = """\
check {
    Correct = always consensus of x >= 4
    EventuallySilent = eventually silent
    StableWitness = stable consensus 1 from 4
    Certified = certified section 4
}
"""

_DOUBLE_EXP_K2_CHECKS = """\
check {
    Correct = always consensus of x >= 16
    EventuallySilent = eventually silent
}
"""


def _leroux_checks(k: int) -> str:
    return f"""\
check {{
    Correct = always consensus of x >= {2 ** k}
    NoDoubleLeader = never reaches L2
    EventuallySilent = eventually silent
}}
"""


SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> None:
    if scenario.name in SCENARIOS:
        raise ValueError(f"duplicate scenario {scenario.name!r}")
    SCENARIOS[scenario.name] = scenario


_register(
    Scenario(
        name="approx-majority",
        title="3-state approximate majority (Angluin-Aspnes-Eisenstat)",
        description=(
            "Nondeterministic 3-state opinion dynamics: converges to the "
            "initial majority with high probability but does NOT stably "
            "compute it — the wrong consensus is reachable and declared so."
        ),
        references=("Angluin-Aspnes-Eisenstat, DISC 2007",),
        instances=(
            _instance(
                "3-state",
                approximate_majority,
                max_input_size=6,
                min_input_size=2,
                checks_source=_APPROX_MAJORITY_CHECKS,
            ),
        ),
        conformance_input=Multiset({"x": 8, "y": 4}),
    )
)

_register(
    Scenario(
        name="double-exp",
        title="double-exponential thresholds (Czerner 2022)",
        description=(
            "Power-combining family deciding x >= 2^(2^k): the threshold "
            "grows double-exponentially in the level parameter while the "
            "smallest instances stay exactly verifiable and certifiable."
        ),
        references=("Czerner 2022, arXiv:2204.02115",),
        instances=(
            _instance(
                "k=1",
                lambda: double_exp_threshold(1),
                max_input_size=6,
                min_input_size=2,
                checks_source=_DOUBLE_EXP_K1_CHECKS,
            ),
            _instance(
                "k=2",
                lambda: double_exp_threshold(2),
                max_input_size=17,
                min_input_size=2,
                checks_source=_DOUBLE_EXP_K2_CHECKS,
            ),
        ),
        conformance_input=Multiset({"x": 6}),
    )
)

_register(
    Scenario(
        name="leroux-leader",
        title="single-leader thresholds (Leroux 2021)",
        description=(
            "Leader protocols deciding x >= 2^k with k + 5 states: the "
            "leader gates acceptance, and the double-leader poison state "
            "L2 is provably uncoverable (a coverability safety invariant)."
        ),
        references=("Leroux 2021, arXiv:2109.15171",),
        instances=(
            _instance(
                "k=1",
                lambda: leroux_leader_threshold(1),
                max_input_size=5,
                min_input_size=1,
                checks_source=_leroux_checks(1),
            ),
            _instance(
                "k=2",
                lambda: leroux_leader_threshold(2),
                max_input_size=7,
                min_input_size=1,
                checks_source=_leroux_checks(2),
            ),
        ),
        conformance_input=Multiset({"x": 5}),
    )
)


def scenario_names() -> Tuple[str, ...]:
    """Registered scenario names, in registration order."""
    return tuple(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario, with a helpful error on unknown names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r} (have: {', '.join(SCENARIOS)})"
        ) from None
