"""Decay of a harmonic oscillator coupled to a continuum bath.

Resonance-pole location by analytic continuation, exact survival
amplitudes by two independent routes, a finite-bath eigensolver oracle,
and the reduced density matrix with its rate-equation limits.
"""

from .density import (
    DensityMatrix2,
    OscillatorState,
    lindblad_solution,
    reduced_density,
)
from .errors import (
    AmplitudeOutOfRange,
    BranchCutHit,
    ConfigError,
    CrossoverNotBracketed,
    DensityInvariantViolated,
    DualMethodMismatch,
    EigensolveFailure,
    GridTooCoarse,
    InvalidDiscretization,
    NegativeFrequency,
    NoConvergence,
    NonPositiveParameter,
    OnCut,
    OrderingViolated,
    OscBathError,
    PoleInUpperHalfPlane,
    PoleOnRay,
    PositivityViolated,
    QuadratureFailure,
    WindowBeforeCrossover,
)
from .model import (
    ModelParams,
    QuadConfig,
    build_model,
    spectral_weight,
    spectral_weight_analytic,
)
from .oracle import DiscreteBath, Scheme, discretize, oracle_amplitude, recurrence_time
from .selfenergy import (
    Resonance,
    Sheet,
    SheetPoint,
    Side,
    alpha,
    alpha_boundary,
    find_resonance,
    perturbative_resonance,
)
from .survival import (
    DEFAULT_RAY_ANGLE,
    AmplitudeSeries,
    Decay,
    PhaseReport,
    ZenoFit,
    crossover_times,
    exponential_rate_fit,
    hybrid_time_grid,
    khalfin_exponent,
    sum_rule,
    survival_probability,
    zeno_slope,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "QuadConfig", "build_model", "spectral_weight",
    "spectral_weight_analytic",
    "Sheet", "Side", "SheetPoint", "Resonance", "alpha", "alpha_boundary",
    "perturbative_resonance", "find_resonance",
    "Decay", "AmplitudeSeries", "PhaseReport", "ZenoFit", "hybrid_time_grid",
    "survival_probability",
    "zeno_slope", "khalfin_exponent", "crossover_times", "sum_rule",
    "exponential_rate_fit", "DEFAULT_RAY_ANGLE",
    "Scheme", "DiscreteBath", "discretize", "oracle_amplitude", "recurrence_time",
    "OscillatorState", "DensityMatrix2", "reduced_density", "lindblad_solution",
    "OscBathError", "NonPositiveParameter", "PositivityViolated",
    "NegativeFrequency", "BranchCutHit", "OnCut", "QuadratureFailure",
    "NoConvergence", "PoleInUpperHalfPlane", "PoleOnRay", "GridTooCoarse",
    "WindowBeforeCrossover", "CrossoverNotBracketed", "InvalidDiscretization",
    "EigensolveFailure", "AmplitudeOutOfRange", "ConfigError",
    "DualMethodMismatch", "OrderingViolated", "DensityInvariantViolated",
]
