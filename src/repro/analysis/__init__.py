"""Metrics, datasets and robustness harnesses."""

from .calibrate import (
    calibrate_adder,
    calibration_grid,
    fit_adder_calibration,
)
from .datasets import (
    Dataset,
    make_blobs,
    make_edge_patches,
    make_logic,
    make_majority,
)
from .elasticity import (
    ElasticityReport,
    elasticity_score,
    frequency_flatness,
    ratiometric_report,
)
from .robustness import (
    MonteCarloStats,
    StressPoint,
    accuracy_under_supply,
    adder_corner_errors,
    adder_monte_carlo,
)
from .yield_analysis import YieldResult, perceptron_yield
from .sensitivity import (
    SENSITIVITY_PARAMETERS,
    Sensitivity,
    adder_sensitivities,
)

__all__ = [
    "Dataset", "make_blobs", "make_majority", "make_edge_patches",
    "make_logic",
    "ElasticityReport", "ratiometric_report", "frequency_flatness",
    "elasticity_score",
    "MonteCarloStats", "adder_monte_carlo", "adder_corner_errors",
    "StressPoint", "accuracy_under_supply",
    "calibrate_adder", "calibration_grid", "fit_adder_calibration",
    "adder_sensitivities", "Sensitivity", "SENSITIVITY_PARAMETERS",
    "perceptron_yield", "YieldResult",
]
