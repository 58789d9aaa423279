"""Parametric yield: the fraction of manufactured-and-deployed parts
that classify correctly.

Combines the two variation axes this library models — per-device
mismatch (manufacturing) and supply voltage (deployment, e.g. harvester
statistics) — into a single Monte-Carlo yield figure for a trained
perceptron.  This is the number a product team would actually sign off
on, and the strongest single-figure summary of the paper's robustness
story.

All parts run as one batch per dataset sample through
:class:`~repro.core.rc_model.RcBatchSolver` (see
:mod:`repro.exec.batch`), with the samples in dataset order so that a
comparator with hysteresis carries one decision state per part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..core.perceptron import DifferentialPwmPerceptron
from ..exec.batch import (
    batch_adder_values,
    leg_resistance_arrays,
    sample_adder_mismatch,
)
from ..tech.corners import MonteCarloSampler
from .datasets import Dataset


@dataclass(frozen=True)
class YieldResult:
    """Outcome of a yield campaign."""

    n_parts: int
    accuracy_threshold: float
    yield_fraction: float
    mean_accuracy: float
    worst_accuracy: float
    accuracies: "tuple[float, ...]"


def perceptron_yield(perceptron: DifferentialPwmPerceptron,
                     dataset: Dataset, *, n_parts: int = 50,
                     vdd_sampler: Optional[Callable[[], float]] = None,
                     accuracy_threshold: float = 0.95,
                     seed: Optional[int] = None) -> YieldResult:
    """Monte-Carlo yield of a differential PWM perceptron.

    Each simulated *part* draws fresh mismatch for both cell banks; each
    *classification* draws a supply voltage from ``vdd_sampler`` (default:
    the nominal supply).  A part passes when its dataset accuracy meets
    ``accuracy_threshold``.

    Each part keeps its own comparator decision state: it starts low
    and follows that part's classifications in dataset order, with the
    threshold at ``offset ± hysteresis/2`` (exactly ``offset`` without
    hysteresis).  The state of ``perceptron.comparator`` is neither
    read nor changed.
    """
    if n_parts < 1:
        raise AnalysisError("need at least one part")
    if not 0.0 < accuracy_threshold <= 1.0:
        raise AnalysisError("accuracy threshold must lie in (0, 1]")
    sampler = MonteCarloSampler(seed=None if seed is None else seed + 1)
    config = perceptron.config
    n_samples = len(dataset)
    mismatch_pos, mismatch_neg = sample_adder_mismatch(
        sampler, config, n_parts, banks=2)
    vdds = _draw_vdds(vdd_sampler, n_parts, n_samples, float(config.vdd))
    offset = perceptron.comparator.offset
    half_band = perceptron.comparator.hysteresis / 2
    state = np.zeros(n_parts, dtype=bool)
    hits = np.zeros(n_parts)
    for s in range(n_samples):
        duties = list(dataset.X[s]) + [1.0]
        vdd_col = vdds[:, s]
        pos_up, pos_down = leg_resistance_arrays(config, mismatch_pos,
                                                 vdd_col)
        neg_up, neg_down = leg_resistance_arrays(config, mismatch_neg,
                                                 vdd_col)
        pos = batch_adder_values(config, duties, perceptron._pos_weights,
                                 pos_up, pos_down, vdd_col).value
        neg = batch_adder_values(config, duties, perceptron._neg_weights,
                                 neg_up, neg_down, vdd_col).value
        level = offset
        if half_band > 0.0:
            level = np.where(state, offset - half_band, offset + half_band)
        state = (pos - neg) > level
        hits += state == int(dataset.y[s])
    return _summarise(hits / n_samples, n_parts, accuracy_threshold)


def _draw_vdds(vdd_sampler, n_parts: int, n_samples: int,
               nominal: float) -> np.ndarray:
    """Supply draws in the scalar order: part-major, one per sample."""
    if vdd_sampler is None:
        return np.full((n_parts, n_samples), nominal)
    return np.array([[float(vdd_sampler()) for _ in range(n_samples)]
                     for _ in range(n_parts)])


def _summarise(accuracies, n_parts: int,
               accuracy_threshold: float) -> YieldResult:
    arr = np.asarray(list(accuracies))
    return YieldResult(
        n_parts=n_parts,
        accuracy_threshold=accuracy_threshold,
        yield_fraction=float(np.mean(arr >= accuracy_threshold)),
        mean_accuracy=float(arr.mean()),
        worst_accuracy=float(arr.min()),
        accuracies=tuple(float(a) for a in arr))
