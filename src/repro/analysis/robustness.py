"""Monte-Carlo robustness analysis of the weighted adder.

Per-cell Pelgrom mismatch (threshold voltage and transconductance) is
drawn per trial and applied to the switch-level engine; the resulting
adder-output error distribution quantifies the paper's remark that its
errors remain "affordable".  A campaign is one batched numpy solve for
all trials via :mod:`repro.exec.batch`; its output is pinned against
recorded per-trial reference results by ``tests/test_exec_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..core.weighted_adder import WeightedAdder
from ..exec.batch import (
    batch_adder_values,
    leg_resistance_arrays,
    sample_adder_mismatch,
)
from ..tech.corners import CORNER_NAMES, MonteCarloSampler, corner


@dataclass(frozen=True)
class MonteCarloStats:
    """Error statistics of one Monte-Carlo campaign (volts)."""

    n_trials: int
    mean_error: float
    std_error: float
    worst_error: float
    errors: "tuple[float, ...]"

    def percentile(self, q: float) -> float:
        return float(np.percentile(np.abs(self.errors), q))


def adder_monte_carlo(adder: WeightedAdder, duties: Sequence[float],
                      weights: Sequence[int], *, n_trials: int = 100,
                      seed: Optional[int] = None,
                      sampler: Optional[MonteCarloSampler] = None,
                      vdd: Optional[float] = None) -> MonteCarloStats:
    """Distribution of the adder error under per-cell device mismatch.

    The error is measured against the *nominal RC-engine* output (not
    Eq. 2), isolating mismatch from the systematic engine deviation.
    All trials are drawn in one sampler call and solved as one batch.
    """
    if n_trials < 1:
        raise AnalysisError("need at least one trial")
    cfg = adder.config
    sampler = sampler or MonteCarloSampler(seed=seed)
    supply = cfg.vdd if vdd is None else vdd
    nominal = adder.evaluate(duties, weights, engine="rc", vdd=vdd).value
    mismatch, = sample_adder_mismatch(sampler, cfg, n_trials)
    r_up, r_down = leg_resistance_arrays(cfg, mismatch, supply)
    arr = batch_adder_values(cfg, duties, weights, r_up, r_down,
                             supply).value - nominal
    return MonteCarloStats(
        n_trials=n_trials,
        mean_error=float(arr.mean()),
        std_error=float(arr.std(ddof=1)) if n_trials > 1 else 0.0,
        worst_error=float(np.abs(arr).max()),
        errors=tuple(float(e) for e in arr))


def adder_corner_errors(adder: WeightedAdder, duties: Sequence[float],
                        weights: Sequence[int], *,
                        vdd: Optional[float] = None) -> "dict[str, float]":
    """Adder output deviation from TT at each process corner (volts)."""
    cfg = adder.config
    results: "dict[str, float]" = {}
    nominal = adder.evaluate(duties, weights, engine="rc", vdd=vdd).value
    for name in CORNER_NAMES:
        cell = replace(cfg.cell,
                       nmos=corner(cfg.cell.nmos, name),
                       pmos=corner(cfg.cell.pmos, name))
        overrides = {
            i * cfg.n_bits + b: cell.scaled(float(1 << b))
            for i in range(cfg.n_inputs) for b in range(cfg.n_bits)
        }
        value = adder.evaluate(duties, weights, engine="rc", vdd=vdd,
                               cell_overrides=overrides).value
        results[name] = value - nominal
    return results


@dataclass(frozen=True)
class StressPoint:
    """One (condition, accuracy) record of a classification stress test."""

    condition: float
    accuracy: float


def accuracy_under_supply(predict, X: np.ndarray, y: np.ndarray,
                          vdd_values: Sequence[float]) -> List[StressPoint]:
    """Classification accuracy across supply voltages.

    ``predict(x, vdd)`` must return 0/1; works for PWM, digital and
    current-mode models alike, so the robustness benches can overlay
    them.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(X) != len(y) or len(y) == 0:
        raise AnalysisError("need a non-empty dataset")
    points = []
    for vdd in vdd_values:
        hits = sum(int(predict(x, float(vdd)) == label)
                   for x, label in zip(X, y))
        points.append(StressPoint(condition=float(vdd),
                                  accuracy=hits / len(y)))
    return points


def pwm_accuracy_under_supply(perceptron, X: np.ndarray, y: np.ndarray,
                              vdd_values: Sequence[float], *,
                              engine: str = "behavioral"
                              ) -> List[StressPoint]:
    """Batched :func:`accuracy_under_supply` for a differential PWM
    perceptron — identical points, no per-``(sample, vdd)`` Python loop.

    The behavioural engine classifies the whole dataset per supply point
    in one :class:`~repro.serve.engine.BatchInferenceEngine` call
    (bit-identical to the scalar path); the switch-level engine batches
    each sample's entire supply sweep through one
    :class:`~repro.core.rc_model.RcBatchSolver` solve per cell bank
    instead of one scalar periodic solve per grid point.
    """
    from ..engines import require_capability
    from ..serve.engine import BatchInferenceEngine

    # Registry choke point: unknown ids and engines that cannot produce
    # perceptron margins fail with the registry's help.
    require_capability(engine, "serving_margins",
                       context="perceptron accuracy sweeps")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(X) != len(y) or len(y) == 0:
        raise AnalysisError("need a non-empty dataset")
    vdds = [float(v) for v in vdd_values]
    batch_engine = BatchInferenceEngine()
    if engine == "behavioral":
        preds = np.stack([batch_engine.predict(perceptron, X, vdd=v)
                          for v in vdds])                     # (V, N)
    else:
        preds = np.stack([
            batch_engine.predict_supply_sweep(perceptron, x, vdds,
                                              engine=engine)
            for x in X], axis=1)                              # (V, N)
    return [StressPoint(condition=v,
                        accuracy=int(np.sum(preds[i] == y)) / len(y))
            for i, v in enumerate(vdds)]
