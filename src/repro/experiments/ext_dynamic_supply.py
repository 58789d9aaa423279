"""Extension — elasticity *during* a supply transient.

Figs. 6/7 sweep the supply statically.  The harvester scenario is
dynamic: the rail moves while the circuit computes.  This experiment
runs transistor-level transients of the Fig. 2 cell while the supply
ramps from 2.5 V down to a family of end voltages — the paper's 2x
droop (1.25 V) as the primary scenario plus shallower and deeper ramps —
with the PWM driver *referenced to the same rail* (its amplitude tracks
the droop, as a driver powered from that rail would).  The windowed
ratio ``avg(Vout)/avg(Vdd)`` must stay at ``1 - duty`` throughout every
ramp depth.

All ramp profiles share their source timing (same ``t_ramp``, same PWM
breakpoints), so the whole family runs as **one** lock-step
:class:`~repro.circuit.batch_transient.BatchTransientSolver` solve —
the per-waveform trajectories are bit-identical to one-lane per-ramp
:func:`~repro.circuit.transient.transient` runs (pinned by the
sparse-MNA equivalence tests), the wall clock is one Python stepping
loop instead of one per ramp.

The cell keeps Table I's 100 kΩ (Rout-dominance is what linearises the
ratio) but uses a 0.1 pF capacitor, moving the averaging pole to
tau = 10 ns so the output can track a ramp that fits in an affordable
transient; the windows average away the larger ripple.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..circuit.batch_transient import BatchTransientSolver
from ..circuit.elements.passives import Capacitor
from ..circuit.netlist import Circuit
from ..circuit.transient import TransientResult
from ..core.cells import CellDesign, transcoding_inverter_subckt
from ..reporting.figures import FigureData
from ..engines import require_capability
from ..signals.pwm import rail_referenced_pwm
from ..signals.supply import ramp
from .base import ExperimentResult
from .spec import engine_param, experiment, solver_param

EXPERIMENT_ID = "ext_dynamic_supply"
TITLE = "Ratiometric output during live supply ramps (2.5 V -> family)"

DUTY = 0.5
FREQUENCY = 500e6
ROUT = 100e3
COUT = 0.1e-12

#: Ramp end voltages, volts.  The first is the paper-motivated primary
#: scenario (the 2x droop); the rest probe shallower and deeper ramps.
#: Order matters: the primary's metrics are the experiment's headline
#: numbers and must not move when satellites are added.
RAMP_TARGETS = (1.25, 2.0, 1.5, 1.0)

#: Initial output voltage, volts: the settled ratio at the 2.5 V start.
IC_OUT = 2.5 * (1 - DUTY)


def _build(t_ramp: float, v_end: float = 1.25) -> Circuit:
    from dataclasses import replace

    supply = ramp(2.5, v_end, t_ramp)
    c = Circuit("dynamic_supply_cell")
    c.add(supply.to_source("VDD", "vdd"))
    c.add(rail_referenced_pwm("VIN", "in", supply, frequency=FREQUENCY,
                              duty=DUTY))
    design = replace(CellDesign(), rout=ROUT)
    c.instantiate(transcoding_inverter_subckt(design), "X1",
                  {"in": "in", "out": "out", "vdd": "vdd"})
    c.add(Capacitor("COUT", "out", "0", COUT))
    return c


def _run_family(circuits: List[Circuit], t_ramp: float, dt: float, *,
                solver: str) -> List[TransientResult]:
    """One transient per ramp target, stacked into one lock-step solve.

    Every point starts from ``transient(..., ic={"out": V}, uic=True)``'s
    exact initial state (zeros plus the ``out`` initial condition), so
    its trajectory is bit-identical to that one-lane run.
    """
    batch = BatchTransientSolver(circuits, solver=solver)
    x0 = np.zeros((batch.n_points, batch.size))
    out_idx = circuits[0].node_index("out")
    if out_idx >= 0:
        x0[:, out_idx] = IC_OUT
    result = batch.run(t_ramp, dt, x0=x0)
    return [result.point(p) for p in range(batch.n_points)]


@experiment("ext_dynamic_supply", title=TITLE,
            tags=("extension", "supply", "transient"),
            params=[engine_param(
                default="spice",
                help="engine for the live-ramp transients (only engines "
                     "with dynamic-supply capability qualify)"),
                solver_param()])
def run(fidelity: str = "fast", engine: str = "spice",
        solver: str = "auto") -> ExperimentResult:
    # A moving rail breaks the periodicity the behavioural/RC engines
    # assume; the registry capability check rejects them cleanly.
    require_capability(engine, "dynamic_supply",
                       context="live supply-ramp transients",
                       experiment_id=EXPERIMENT_ID)
    n_windows = 24 if fidelity == "paper" else 14
    periods_per_window = 10 if fidelity == "paper" else 8
    period = 1.0 / FREQUENCY
    t_ramp = n_windows * periods_per_window * period
    dt = period / (60 if fidelity == "paper" else 40)
    circuits = [_build(t_ramp, v_end) for v_end in RAMP_TARGETS]
    results = _run_family(circuits, t_ramp, dt, solver=solver)

    window = t_ramp / n_windows
    figure = FigureData(EXPERIMENT_ID, TITLE, "time (ns)", "ratio / volts")
    metrics = {}
    per_target_dev = []
    for v_end, result_tr in zip(RAMP_TARGETS, results):
        out = result_tr.node("out")
        vdd_wave = result_tr.node("vdd")
        times, ratios, rails = [], [], []
        # Skip the first two windows (initial-condition settling, ~2 tau).
        for k in range(2, n_windows):
            t0, t1 = k * window, (k + 1) * window
            v_out = out.slice(t0, t1).average()
            v_dd = vdd_wave.slice(t0, t1).average()
            times.append((t0 + t1) / 2 * 1e9)
            ratios.append(v_out / v_dd)
            rails.append(v_dd)
        worst_dev = float(np.max(np.abs(np.asarray(ratios) - (1 - DUTY))))
        per_target_dev.append(worst_dev)
        if v_end == RAMP_TARGETS[0]:
            # The primary (paper 2x droop) keeps its historical series
            # names and metric keys — and their exact values.
            figure.add_series("Vout/Vdd (windowed)", times, ratios)
            figure.add_series("Vdd (V)", times, rails)
            spread = float(np.ptp(ratios))
            ratio_mean = float(np.mean(ratios))
            metrics.update({
                "ratio_spread": spread,
                "ratio_mean": ratio_mean,
                "ratio_worst_dev": worst_dev,
                "rail_droop_ratio": rails[0] / rails[-1]})
        else:
            figure.add_series(f"Vout/Vdd (to {v_end:g} V)", times, ratios)
        metrics[f"ratio_worst_dev_to_{v_end:g}V"] = worst_dev

    metrics["n_ramp_targets"] = len(RAMP_TARGETS)
    metrics["family_worst_dev"] = float(np.max(per_target_dev))
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, fidelity=fidelity,
        figures=[figure], metrics=metrics)
    result.notes.append(
        f"While the rail droops {metrics['rail_droop_ratio']:.2f}x "
        f"*during* operation, the windowed Vout/Vdd stays within "
        f"{metrics['ratio_spread']:.3f} peak-to-peak of its mean "
        f"{metrics['ratio_mean']:.3f} (ideal 1-duty = {1 - DUTY:.2f}); "
        "the residual tilt is the averaging pole lagging the moving "
        "rail by ~tau. Elasticity holds dynamically, not just across "
        "static operating points.")
    result.notes.append(
        f"Across all {len(RAMP_TARGETS)} ramp depths (end voltages "
        f"{', '.join(format(v, 'g') for v in RAMP_TARGETS)} V) the "
        f"worst ratio deviation is {metrics['family_worst_dev']:.3f} — "
        "the whole family integrates as one lock-step batched MNA "
        "solve (engine capability 'batched_waveforms').")
    return result
