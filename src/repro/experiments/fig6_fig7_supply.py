"""Figs. 6 & 7 — supply-voltage sweep of the inverter cell.

One sweep feeds both artefacts:

* Fig. 6 plots the absolute output voltage versus ``Vdd`` (0.5–5 V) for
  duty cycles 25/50/75 % — it grows roughly linearly, so the absolute
  value carries no reliable information under an unstable supply;
* Fig. 7 plots ``Vout / Vdd`` — the ratiometric readout, flat above
  roughly 1–1.5 V.  That flatness *is* the power-elasticity result.

The input amplitude tracks the supply (the PWM driver runs from the same
rail), as in the paper's setup.

Execution: every engine comes from the :mod:`repro.engines` registry
and gets the whole ``(duty, Vdd)`` grid in one ``sweep_grid`` call —
``spice`` stacks every point into one lock-step MNA shooting solve
(:class:`~repro.circuit.batch_transient.BatchTransientSolver`,
bit-identical to the historical per-point loop), ``rc`` runs one
:class:`~repro.core.rc_model.RcBatchSolver` solve per duty, and
``behavioral`` is closed form.  Unknown engine ids fail in
:func:`repro.engines.get_engine` — the registry's single validation
point — whether they arrive via the CLI, HTTP, or a direct call.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..analysis.elasticity import ratiometric_report
from ..core.cells import CellDesign
from ..engines import CellStimulus, get_engine
from ..reporting.figures import FigureData
from .base import ExperimentResult
from .spec import Param, engine_param, experiment

DUTIES = (0.25, 0.50, 0.75)

PAPER_VDD = tuple(np.arange(0.5, 5.01, 0.5))
FAST_VDD = (1.0, 2.5, 4.0)

FREQUENCY = 500e6

#: Fig. 6/7 load the cell with the 100 kOhm "linear" resistor.
ROUT = 100e3

COUT = 1e-12


def supply_sweep_rc_batch(duties: Sequence[float],
                          vdd_values: Sequence[float], *,
                          rout: float = ROUT,
                          cout: float = COUT,
                          frequency: float = FREQUENCY,
                          design: Optional[CellDesign] = None
                          ) -> "dict[float, list]":
    """Switch-level supply sweep, one batched solve per duty cycle.

    Thin wrapper over the registry's ``rc`` engine (kept as the
    historical entry point): every supply point shares the duty's
    switching pattern, so the whole ``Vdd`` grid is one
    :class:`~repro.core.rc_model.RcBatchSolver` solve.
    """
    eng = get_engine("rc")
    base = design or CellDesign()
    vdds = [float(v) for v in vdd_values]
    data: "dict[float, list]" = {}
    for duty in duties:
        stimulus = CellStimulus(duty=float(duty), frequency=frequency,
                                cout=cout, rout=rout)
        values = eng.sweep_supply(base, stimulus, vdds)
        data[float(duty)] = list(zip(vdds, [float(v) for v in values]))
    return data


def _sweep(fidelity: str, vdd_values: Optional[Sequence[float]],
           engine: str = "spice") -> "dict[float, list]":
    # The registry is the single engine-id validation point: direct
    # module calls fail here exactly like CLI/HTTP input does.
    eng = get_engine(engine)
    if vdd_values is None:
        vdd_values = PAPER_VDD if fidelity == "paper" else FAST_VDD
    vdds = [float(v) for v in vdd_values]
    steps = 150 if fidelity == "paper" else 80
    options = {"steps_per_period": steps} \
        if eng.capabilities().level == "transistor" else {}
    # One call for the whole (duty, vdd) grid: the spice engine solves
    # it as one batch.
    values = eng.sweep_grid(
        CellDesign(), [CellStimulus(duty=duty, frequency=FREQUENCY,
                                    cout=COUT, rout=ROUT)
                       for duty in DUTIES], vdds, **options)
    return {duty: list(zip(vdds, [float(v) for v in row]))
            for duty, row in zip(DUTIES, values)}


@experiment(
    "fig6", title="Output voltage vs power supply",
    tags=("paper", "figure", "supply"),
    params=[
        Param("vdd_values", "floats", default=None, minimum=0.05,
              help="supply voltages in V "
                   "(default: fidelity-dependent grid)"),
        engine_param(default="spice"),
    ])
def run_fig6(fidelity: str = "fast",
             vdd_values: Optional[Sequence[float]] = None,
             engine: str = "spice") -> ExperimentResult:
    data = _sweep(fidelity, vdd_values, engine)
    figure = FigureData("fig6", "Vout (absolute) vs supply voltage",
                        "Vdd (V)", "Vout (V)")
    metrics = {}
    for duty, points in data.items():
        vdd = [p[0] for p in points]
        vout = [p[1] for p in points]
        figure.add_series(f"DC={int(duty * 100)}%", vdd, vout)
        slope = np.polyfit(vdd, vout, 1)[0]
        metrics[f"slope[DC={int(duty * 100)}%]"] = float(slope)
    result = ExperimentResult(
        experiment_id="fig6", title="Output voltage vs power supply",
        fidelity=fidelity, figures=[figure], metrics=metrics)
    result.notes.append(
        "Paper claim: Vout grows almost linearly with Vdd and higher "
        "duty cycles sit lower — the absolute value is not a reliable "
        "readout under supply variation.")
    return result


@experiment(
    "fig7", title="Output voltage relative to the power supply",
    tags=("paper", "figure", "supply"),
    params=[
        Param("vdd_values", "floats", default=None, minimum=0.05,
              help="supply voltages in V "
                   "(default: fidelity-dependent grid)"),
        engine_param(default="spice"),
    ])
def run_fig7(fidelity: str = "fast",
             vdd_values: Optional[Sequence[float]] = None,
             engine: str = "spice") -> ExperimentResult:
    data = _sweep(fidelity, vdd_values, engine)
    figure = FigureData("fig7", "Vout/Vdd (ratiometric) vs supply voltage",
                        "Vdd (V)", "Vout/Vdd")
    metrics = {}
    for duty, points in data.items():
        vdd = [p[0] for p in points]
        vout = [p[1] for p in points]
        figure.add_series(f"DC={int(duty * 100)}%", vdd,
                          [v / s for v, s in zip(vout, vdd)])
        if len(vdd) >= 2:
            report = ratiometric_report(vdd, vout, tolerance=0.05)
            metrics[f"usable_from[DC={int(duty * 100)}%]"] = report.usable_from
            metrics[f"spread[DC={int(duty * 100)}%]"] = report.spread_in_window
    result = ExperimentResult(
        experiment_id="fig7",
        title="Output voltage relative to the power supply",
        fidelity=fidelity, figures=[figure], metrics=metrics)
    result.notes.append(
        "Paper claim: starting from 1-1.5V the Vout/Vdd relationship "
        "stays the same for each duty cycle — the power-elasticity "
        "signature. 'usable_from' reports where the ratio enters its "
        "5% tolerance band.")
    return result


def run(fidelity: str = "fast") -> ExperimentResult:
    """Default entry point: Fig. 7 (the headline result)."""
    return run_fig7(fidelity)
