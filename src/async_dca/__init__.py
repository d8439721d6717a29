"""Random asynchronous iterations of distributed coordination algorithms.

A linear averaging network x(k+1) = A_sigma_k x(k) updates only the agents
in the random set sigma_k at each tick.  This package provides the matrix
and graph analysis for such systems (ergodic coefficients, scrambling and
SIA classification, rootedness), the schedulers that generate the update
sets, checkers for the almost-sure-consensus conditions, the labelled-cycle
backward walk with its geometric absorption bound, and a seeded Monte Carlo
harness with canned qualitative replays.
"""
from ._kernels import backend_name
from .datasets import (
    BUNDLED_MATRICES,
    BUNDLED_SCHEDULERS,
    bundled_matrix,
    bundled_scheduler,
)
from .errors import DimensionError, ValidationError
from .graphs import (
    DirectedGraph,
    LabelledCycle,
    RootReport,
    analysis_report,
    build_graph,
    build_labelled_cycle,
    is_sia,
    roots,
    scc_decomposition,
)
from .matrices import (
    ColumnStochasticMatrix,
    StochasticMatrix,
    ergodic_coefficient,
    is_scrambling,
    max_discrepancy,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    ReplayReport,
    REPLAY_CASES,
    replay,
    run_experiment,
    wilson_interval,
)
from .rng import DEFAULT_SEED, stream
from .schedulers import (
    ConditionCheck,
    ConditionReport,
    GlobalClockScheduler,
    IndependentClocksScheduler,
    MarkovScheduler,
    Scheduler,
    ScriptScheduler,
    StrongAperiodicityCheck,
    SupportSequenceScheduler,
    check_conditions,
    check_strongly_aperiodic,
    normalize_update_set,
    scheduler_from_json,
)
from .walk import (
    DistanceChain,
    MatchCurve,
    RateCertificate,
    default_move_probabilities,
    match_probability_curve,
)

__version__ = "0.1.0"

__all__ = [
    "BUNDLED_MATRICES",
    "BUNDLED_SCHEDULERS",
    "ColumnStochasticMatrix",
    "ConditionCheck",
    "ConditionReport",
    "DEFAULT_SEED",
    "DimensionError",
    "DirectedGraph",
    "DistanceChain",
    "ExperimentConfig",
    "ExperimentResult",
    "GlobalClockScheduler",
    "IndependentClocksScheduler",
    "LabelledCycle",
    "MarkovScheduler",
    "MatchCurve",
    "RateCertificate",
    "REPLAY_CASES",
    "ReplayReport",
    "RootReport",
    "Scheduler",
    "ScriptScheduler",
    "StochasticMatrix",
    "StrongAperiodicityCheck",
    "SupportSequenceScheduler",
    "ValidationError",
    "analysis_report",
    "backend_name",
    "build_graph",
    "build_labelled_cycle",
    "bundled_matrix",
    "bundled_scheduler",
    "check_conditions",
    "check_strongly_aperiodic",
    "default_move_probabilities",
    "ergodic_coefficient",
    "is_scrambling",
    "is_sia",
    "match_probability_curve",
    "max_discrepancy",
    "normalize_update_set",
    "replay",
    "roots",
    "run_experiment",
    "scc_decomposition",
    "scheduler_from_json",
    "stream",
    "wilson_interval",
]
