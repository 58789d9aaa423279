"""Extension — parametric yield under mismatch + harvester supply.

One figure of merit for the whole robustness story: the fraction of
manufactured parts that keep classifying correctly when deployed on an
unregulated supply.  Mismatch is drawn per part (Pelgrom), the supply
per classification (uniform over the harvester's range), and the PWM
perceptron's yield is contrasted with the amplitude-coded analog
baseline under the *same* supply distribution.

The PWM campaign runs on the vectorised ensemble engine
(:mod:`repro.exec.batch`): all parts are solved in one batch per
dataset sample.
"""

from __future__ import annotations

import numpy as np

from ..analog_baseline.current_mode import CurrentModePerceptron
from ..analysis.datasets import make_blobs
from ..analysis.yield_analysis import perceptron_yield
from ..core.training import PerceptronTrainer
from ..reporting.tables import Table
from .base import ExperimentResult
from .spec import Param, experiment, seed_param

EXPERIMENT_ID = "ext_yield"
TITLE = "Parametric yield: mismatch + unregulated supply"

VDD_RANGE = (1.2, 3.5)


@experiment(
    "ext_yield", title=TITLE,
    tags=("extension", "yield", "monte-carlo"),
    params=[
        seed_param(13),
        # Every spelling runs the one batched path.  The Param (and its
        # wording, pinned by the GET /experiments wire fixture) stays:
        # RunConfig keys of stored results and campaign axes include it.
        Param("method", "str", default="auto",
              choices=("auto", "loop", "vectorized"),
              help="yield campaign backend: batched 'vectorized', "
                   "scalar 'loop', or 'auto'"),
    ])
def run(fidelity: str = "fast", seed: int = 13,
        method: str = "auto") -> ExperimentResult:
    del method  # one batched path serves every spelling
    n_parts = 60 if fidelity == "paper" else 12
    n_per_class = 30 if fidelity == "paper" else 12

    data = make_blobs(n_per_class=n_per_class, n_features=2,
                      separation=0.35, spread=0.09, seed=seed)
    trainer = PerceptronTrainer(2, seed=seed)
    trained = trainer.fit(data.X, data.y, epochs=60)
    pwm = trained.perceptron

    rng = np.random.default_rng(seed)

    def vdd_sampler() -> float:
        return float(rng.uniform(*VDD_RANGE))

    result_pwm = perceptron_yield(pwm, data, n_parts=n_parts,
                                  vdd_sampler=vdd_sampler,
                                  accuracy_threshold=0.95, seed=seed)

    # Amplitude-coded baseline: same boundary, same supply statistics.
    # (Mismatch is not even needed to sink it — the supply alone does.)
    analog = CurrentModePerceptron(
        [float(max(w, 0)) for w in pwm.weights],
        theta=float(max(-pwm.bias, 0)))
    analog_accs = []
    for _part in range(n_parts):
        hits = sum(
            int(analog.predict(x, vdd=vdd_sampler()) == int(label))
            for x, label in zip(data.X, data.y))
        analog_accs.append(hits / len(data))
    analog_yield = float(np.mean(np.asarray(analog_accs) >= 0.95))

    table = Table(["design", "yield @95% acc", "mean accuracy",
                   "worst accuracy"],
                  title=f"{n_parts} parts, Vdd ~ U{VDD_RANGE}, "
                        "per-cell Pelgrom mismatch")
    table.add_row("PWM differential (this work)",
                  result_pwm.yield_fraction, result_pwm.mean_accuracy,
                  result_pwm.worst_accuracy)
    table.add_row("current-mode amplitude analog", analog_yield,
                  float(np.mean(analog_accs)), float(np.min(analog_accs)))

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, fidelity=fidelity,
        table=table,
        metrics={
            "pwm_yield": result_pwm.yield_fraction,
            "pwm_worst_accuracy": result_pwm.worst_accuracy,
            "analog_yield": analog_yield,
        })
    result.notes.append(
        "The PWM design's yield is limited only by samples that land "
        "near the decision boundary (mismatch moves it by millivolts); "
        "the amplitude-coded design fails in bulk because every "
        "classification at a drooped supply sees a shifted boundary.")
    return result
