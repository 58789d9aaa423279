"""Fig. 5 — inverter output vs input frequency (1 MHz – 1.5 GHz).

The paper's frequency-resilience figure: with ``Rout = 100 kΩ`` the
average output voltage stays put across three decades of input
frequency for duty cycles 25/50/75 %.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.elasticity import frequency_flatness
from .base import ExperimentResult
from .spec import Param, experiment
from .fig4_dc_transfer import measure_cells
from ..reporting.figures import FigureData

EXPERIMENT_ID = "fig5"
TITLE = "Inverter cell: Vout vs input frequency"

DUTIES = (0.25, 0.50, 0.75)

PAPER_FREQUENCIES = (1e6, 5e6, 10e6, 50e6, 100e6, 500e6, 1000e6, 1500e6)
FAST_FREQUENCIES = (10e6, 100e6, 1000e6)


@experiment(
    "fig5", title=TITLE, tags=("paper", "figure", "frequency"),
    params=[
        Param("frequencies", "floats", default=None, minimum=1.0,
              help="input PWM frequencies in Hz "
                   "(default: fidelity-dependent grid)"),
    ])
def run(fidelity: str = "fast",
        frequencies: Optional[Sequence[float]] = None) -> ExperimentResult:
    if frequencies is None:
        frequencies = PAPER_FREQUENCIES if fidelity == "paper" \
            else FAST_FREQUENCIES
    steps = 150 if fidelity == "paper" else 80

    figure = FigureData(EXPERIMENT_ID, TITLE, "Frequency (MHz)", "Vout (V)",
                        log_x=True)
    metrics = {}
    vouts = measure_cells([(duty, 100e3, float(f))
                           for duty in DUTIES for f in frequencies],
                          steps_per_period=steps).reshape(
        len(DUTIES), len(frequencies)).tolist()
    for duty, vout in zip(DUTIES, vouts):
        figure.add_series(f"DC={int(duty * 100)}%",
                          [f / 1e6 for f in frequencies], vout)
        metrics[f"flatness[DC={int(duty * 100)}%]"] = frequency_flatness(
            frequencies, vout)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, fidelity=fidelity,
        figures=[figure], metrics=metrics)
    result.notes.append(
        "Paper claim: Vout 'almost the same for a wide range of "
        "frequencies'. Flatness = (max-min)/mean per duty cycle; "
        "values of a few percent confirm the claim.")
    return result
