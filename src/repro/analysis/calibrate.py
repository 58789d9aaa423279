"""Fit the behavioural model's calibration polynomial to a slower engine.

Running the transistor-level engine over a small operand grid and
fitting :class:`~repro.core.behavioral.CalibrationModel` gives the
behavioural engine transistor-level accuracy at closed-form cost — the
standard surrogate-modelling workflow for analog ML hardware.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..core.behavioral import CalibrationModel, fit_calibration
from ..core.weighted_adder import WeightedAdder


def calibration_grid(adder: WeightedAdder, *,
                     duties_grid: Optional[Sequence[float]] = None,
                     seed: int = 0,
                     n_random: int = 8) -> "List[Tuple[list, list]]":
    """Operand sets covering the output range: corner points plus random
    (duty, weight) draws."""
    cfg = adder.config
    rng = np.random.default_rng(seed)
    wmax = cfg.weight_limit
    points: "List[Tuple[list, list]]" = [
        ([0.5] * cfg.n_inputs, [wmax] * cfg.n_inputs),
        ([0.9] * cfg.n_inputs, [wmax] * cfg.n_inputs),
        ([0.2] * cfg.n_inputs, [wmax] * cfg.n_inputs),
        ([0.5] * cfg.n_inputs, [max(1, wmax // 2)] * cfg.n_inputs),
    ]
    if duties_grid:
        for d in duties_grid:
            points.append(([float(d)] * cfg.n_inputs, [wmax] * cfg.n_inputs))
    for _ in range(n_random):
        duties = rng.uniform(0.1, 0.95, cfg.n_inputs).tolist()
        weights = rng.integers(0, wmax + 1, cfg.n_inputs).tolist()
        points.append((duties, [int(w) for w in weights]))
    return points


def calibrate_adder(adder: WeightedAdder, *, engine: str = "spice",
                    degree: int = 2, seed: int = 0, n_random: int = 8,
                    steps_per_period: int = 100) -> "Tuple[CalibrationModel, float]":
    """Fit a calibration polynomial; returns ``(model, rms_residual)``.

    The residual (volts) is measured on the fitting grid itself and
    reported so callers can decide whether the surrogate is usable.
    """
    if engine not in ("rc", "spice"):
        raise AnalysisError("calibrate against 'rc' or 'spice'")
    grid = calibration_grid(adder, seed=seed, n_random=n_random)
    if engine == "spice":
        measured = [r.value for r in adder.evaluate_spice(
            [dict(duties=d, weights=w) for d, w in grid],
            steps_per_period=steps_per_period)]
    else:
        measured = [adder.evaluate(d, w, engine=engine).value
                    for d, w in grid]
    return fit_adder_calibration(adder, grid, measured, degree=degree)


def fit_adder_calibration(adder: WeightedAdder,
                          grid: "Sequence[Tuple[list, list]]",
                          measured: Sequence[float], *,
                          degree: int = 2
                          ) -> "Tuple[CalibrationModel, float]":
    """Fit the calibration polynomial to outputs already measured on
    ``grid``; returns ``(model, rms_residual)`` on that grid."""
    ideal = [adder.theoretical_output(d, w) for d, w in grid]
    model = fit_calibration(ideal, measured, adder.config.vdd, degree=degree)
    corrected = [model.apply(v, adder.config.vdd) for v in ideal]
    residual = float(np.sqrt(np.mean(
        (np.asarray(corrected) - np.asarray(measured)) ** 2)))
    return model, residual
