"""Parametric yield: the fraction of manufactured-and-deployed parts
that classify correctly.

Combines the two variation axes this library models — per-device
mismatch (manufacturing) and supply voltage (deployment, e.g. harvester
statistics) — into a single Monte-Carlo yield figure for a trained
perceptron.  This is the number a product team would actually sign off
on, and the strongest single-figure summary of the paper's robustness
story.

Execution mirrors :func:`repro.analysis.robustness.adder_monte_carlo`:
``method="loop"`` is the reference in-order per-part path;
``method="vectorized"`` (the ``"auto"`` default) batches all parts per
dataset sample through :class:`~repro.core.rc_model.RcBatchSolver` and
agrees with the loop to float tolerance while drawing the same random
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..core.cells import CellDesign
from ..core.comparator import DifferentialComparator
from ..core.perceptron import DifferentialPwmPerceptron
from ..exec.batch import (
    batch_adder_values,
    leg_resistance_arrays,
    sample_adder_mismatch,
)
from ..tech.corners import MonteCarloSampler
from .datasets import Dataset

YIELD_METHODS = ("auto", "loop", "vectorized")


@dataclass(frozen=True)
class YieldResult:
    """Outcome of a yield campaign."""

    n_parts: int
    accuracy_threshold: float
    yield_fraction: float
    mean_accuracy: float
    worst_accuracy: float
    accuracies: "tuple[float, ...]"


def _mismatched_overrides(config, sampler: MonteCarloSampler) -> Dict[int, CellDesign]:
    overrides: Dict[int, CellDesign] = {}
    for i in range(config.n_inputs):
        for b in range(config.n_bits):
            design = config.cell.scaled(float(1 << b))
            nm = sampler.sample(design.wn, design.length)
            pm = sampler.sample(design.wp, design.length)
            overrides[i * config.n_bits + b] = replace(
                design, nmos=nm.apply(design.nmos),
                pmos=pm.apply(design.pmos))
    return overrides


def _plain_differential(comparator) -> bool:
    """True when the decision reduces to ``(pos - neg) > offset``."""
    return (type(comparator) is DifferentialComparator
            and comparator.hysteresis == 0.0)


def perceptron_yield(perceptron: DifferentialPwmPerceptron,
                     dataset: Dataset, *, n_parts: int = 50,
                     vdd_sampler: Optional[Callable[[], float]] = None,
                     accuracy_threshold: float = 0.95,
                     seed: Optional[int] = None,
                     method: str = "auto") -> YieldResult:
    """Monte-Carlo yield of a differential PWM perceptron.

    Each simulated *part* draws fresh mismatch for both cell banks; each
    *classification* draws a supply voltage from ``vdd_sampler`` (default:
    the nominal supply).  A part passes when its dataset accuracy meets
    ``accuracy_threshold``.

    ``method="vectorized"`` (the ``"auto"`` default) solves all parts at
    once per dataset sample; ``method="loop"`` runs the reference
    in-order per-part evaluation.  A comparator with hysteresis is
    stateful across classifications, so it forces the loop path.
    """
    if n_parts < 1:
        raise AnalysisError("need at least one part")
    if not 0.0 < accuracy_threshold <= 1.0:
        raise AnalysisError("accuracy threshold must lie in (0, 1]")
    if method not in YIELD_METHODS:
        raise AnalysisError(f"unknown method {method!r}; use {YIELD_METHODS}")
    sampler = MonteCarloSampler(seed=None if seed is None else seed + 1)
    config = perceptron.config
    n_samples = len(dataset)
    nominal_vdd = float(config.vdd)

    # Hysteresis carries state from one compare to the next: only the
    # strictly-in-order loop reproduces it.
    if method == "loop" or not _plain_differential(perceptron.comparator):
        accuracies = _yield_loop(perceptron, dataset, n_parts,
                                 vdd_sampler, sampler)
    else:
        mismatch_pos, mismatch_neg = sample_adder_mismatch(
            sampler, config, n_parts, banks=2)
        vdds = _draw_vdds(vdd_sampler, n_parts, n_samples, nominal_vdd)
        offset = perceptron.comparator.offset
        hits = np.zeros(n_parts)
        for s in range(n_samples):
            duties = list(dataset.X[s]) + [1.0]
            vdd_col = vdds[:, s]
            pos_up, pos_down = leg_resistance_arrays(config, mismatch_pos,
                                                     vdd_col)
            neg_up, neg_down = leg_resistance_arrays(config, mismatch_neg,
                                                     vdd_col)
            pos = batch_adder_values(config, duties,
                                     perceptron._pos_weights,
                                     pos_up, pos_down, vdd_col).value
            neg = batch_adder_values(config, duties,
                                     perceptron._neg_weights,
                                     neg_up, neg_down, vdd_col).value
            predictions = ((pos - neg) > offset).astype(int)
            hits += predictions == int(dataset.y[s])
        accuracies = list(hits / n_samples)
    return _summarise(accuracies, n_parts, accuracy_threshold)


def _draw_vdds(vdd_sampler, n_parts: int, n_samples: int,
               nominal: float) -> np.ndarray:
    """Supply draws in the scalar order: part-major, one per sample."""
    if vdd_sampler is None:
        return np.full((n_parts, n_samples), nominal)
    return np.array([[float(vdd_sampler()) for _ in range(n_samples)]
                     for _ in range(n_parts)])


def _yield_loop(perceptron, dataset, n_parts, vdd_sampler,
                sampler) -> "List[float]":
    """Strictly-serial reference path; the only one that reproduces a
    stateful (hysteresis) comparator."""
    config = perceptron.config
    accuracies: List[float] = []
    for _part in range(n_parts):
        pos_overrides = _mismatched_overrides(config, sampler)
        neg_overrides = _mismatched_overrides(config, sampler)
        hits = 0
        for x, label in zip(dataset.X, dataset.y):
            vdd = float(vdd_sampler()) if vdd_sampler else None
            duties = list(x) + [1.0]
            pos = perceptron.pos_adder.evaluate(
                duties, perceptron._pos_weights, engine="rc", vdd=vdd,
                cell_overrides=pos_overrides)
            neg = perceptron.neg_adder.evaluate(
                duties, perceptron._neg_weights, engine="rc", vdd=vdd,
                cell_overrides=neg_overrides)
            prediction = int(perceptron.comparator.compare(pos.value,
                                                           neg.value))
            hits += int(prediction == int(label))
        accuracies.append(hits / len(dataset))
    return accuracies


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
