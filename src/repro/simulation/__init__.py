"""Stochastic simulation: exact schedulers, tau-leap ensembles, convergence stats."""

from .conformance import (
    ChiSquaredResult,
    ConformanceReport,
    MatchedSeedCheck,
    TrajectoryCheck,
    analytic_delta_distribution,
    analytic_pair_distribution,
    check_conformance,
    chi_squared_sf,
)
from .ensembles import ENSEMBLE_ENGINES, EnsembleResult, run_ensemble
from .convergence import ConvergenceStats, convergence_scaling, fit_nlogn, measure_convergence
from .vectorized import VectorEnsembleScheduler, VectorRunResult
from .faults import Fault, FaultyRunResult, corrupt, crash, run_with_faults
from .scheduler import AgentListScheduler, CountScheduler, SimulationResult, StepOutcome
from .statistics import TimeSeries, record_time_series
from .trace import Trace, TraceEvent, record_trace

__all__ = [
    "AgentListScheduler",
    "CountScheduler",
    "SimulationResult",
    "StepOutcome",
    "ConvergenceStats",
    "measure_convergence",
    "convergence_scaling",
    "fit_nlogn",
    "Trace",
    "TraceEvent",
    "record_trace",
    "TimeSeries",
    "record_time_series",
    "Fault",
    "crash",
    "corrupt",
    "run_with_faults",
    "FaultyRunResult",
    "EnsembleResult",
    "run_ensemble",
    "ENSEMBLE_ENGINES",
    "VectorEnsembleScheduler",
    "VectorRunResult",
    "ChiSquaredResult",
    "ConformanceReport",
    "MatchedSeedCheck",
    "TrajectoryCheck",
    "analytic_pair_distribution",
    "analytic_delta_distribution",
    "check_conformance",
    "chi_squared_sf",
]
