"""Fig. 4 — inverter output voltage vs input duty cycle, per Rout.

Reproduces the paper's three curves ("No load", 5 kΩ, 100 kΩ) by
transistor-level PSS of the Fig. 2 cell.  The claims under test:

* output voltage is inversely proportional to duty cycle;
* with a large ``Rout`` the transfer is essentially linear
  (``r² > 0.999``);
* with a small/no load the transistor resistances bend the curve.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..circuit.measure import max_linearity_error, r_squared
from ..circuit.batch_transient import shooting_batch
from ..core.cells import NO_LOAD_ROUT, build_transcoding_inverter_bench
from ..reporting.figures import FigureData
from ..tech.umc65 import TABLE1_SIZING
from .base import ExperimentResult
from .spec import Param, experiment

EXPERIMENT_ID = "fig4"
TITLE = "Inverter cell: Vout vs input duty cycle (per Rout)"

#: The paper's load cases, in plot order.
ROUT_CASES = (("No load", NO_LOAD_ROUT), ("5kOhm", 5e3), ("100kOhm", 100e3))


def measure_cells(points: "Sequence[tuple]", *,
                  vdd: float = TABLE1_SIZING.vdd, cout: float = 1e-12,
                  steps_per_period: int = 120) -> np.ndarray:
    """Average cell outputs at ``(duty, rout, frequency)`` operating
    points (transistor level), solved as one batched PSS."""
    circuits = [build_transcoding_inverter_bench(
        duty, vdd=vdd, frequency=frequency, cout=cout, rout=rout)
        for duty, rout, frequency in points]
    pss = shooting_batch(circuits, [1.0 / f for _, _, f in points],
                         observe=["out"], steps_per_period=steps_per_period)
    return pss.averages("out")


@experiment(
    "fig4", title=TITLE, tags=("paper", "figure", "dc-transfer"),
    params=[
        Param("duties", "floats", default=None, minimum=0.0, maximum=1.0,
              help="input duty cycles to sweep "
                   "(default: fidelity-dependent grid)"),
    ])
def run(fidelity: str = "fast",
        duties: Optional[Sequence[float]] = None) -> ExperimentResult:
    if duties is None:
        duties = (np.linspace(0.0, 1.0, 11) if fidelity == "paper"
                  else np.linspace(0.1, 0.9, 5))
    steps = 150 if fidelity == "paper" else 80

    figure = FigureData(EXPERIMENT_ID, TITLE, "Duty cycle", "Vout (V)")
    metrics = {}
    vouts = measure_cells([(float(d), rout, 500e6)
                           for _, rout in ROUT_CASES for d in duties],
                          steps_per_period=steps).reshape(
        len(ROUT_CASES), len(duties)).tolist()
    for (label, _), vout in zip(ROUT_CASES, vouts):
        figure.add_series(label, [100 * d for d in duties], vout)
        metrics[f"r2[{label}]"] = r_squared(duties, vout)
        metrics[f"max_lin_err[{label}]"] = max_linearity_error(duties, vout)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, fidelity=fidelity,
        figures=[figure], metrics=metrics)
    result.notes.append(
        "Paper claim: the 100kOhm curve is linear, smaller loads bend. "
        f"Measured r^2: 100kOhm={metrics['r2[100kOhm]']:.5f}, "
        f"5kOhm={metrics['r2[5kOhm]']:.5f}, "
        f"no-load={metrics['r2[No load]']:.5f}.")
    return result
