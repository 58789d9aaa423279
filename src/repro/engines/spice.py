"""Transistor-level engine: MNA shooting PSS of the full cell netlist.

Everything runs on the lock-step MNA stepper.  A single point is a
one-point :func:`~repro.circuit.pss.shooting`; supply sweeps, whole
``(duty, supply)`` grids and Monte-Carlo batches stack their
independent points into one lock-step solve via
:func:`~repro.circuit.batch_transient.shooting_batch` — the Python
stepping machinery runs once for the whole grid instead of once per
point, while every point's result stays bit-identical to its one-point
solve (``benchmarks/BENCH_engines.json`` records the speedup).
The batch layer takes per-point timing too (duty, frequency, period),
so the same path serves the experiments' duty and frequency sweeps.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Optional, Sequence

import numpy as np

from ..circuit.batch_transient import shooting_batch
from ..circuit.netlist import Circuit
from ..circuit.pss import shooting
from ..core.cells import CellDesign, build_transcoding_inverter_bench
from ..tech.corners import MonteCarloSampler
from .base import CellStimulus, Engine, EngineCapabilities, engine

_CAPS = EngineCapabilities(
    level="transistor",
    batched_supply_sweep=True,
    batched_monte_carlo=True,
    frequency_dependent=True,
    models_mismatch=True,
    dynamic_supply=True,
    batched_waveforms=True,
    serving_margins=True,
    cost_rank=3,
)

#: Default largest MNA step, as steps per PWM period (steps are graded:
#: small at every PWM edge, growing to this between edges).
DEFAULT_STEPS = 25


def _bench(design: CellDesign, stimulus: CellStimulus, *,
           vdd: float) -> Circuit:
    """The Fig. 2 bench at one supply (PWM amplitude tracks the rail)."""
    return build_transcoding_inverter_bench(
        stimulus.duty, design=design, vdd=vdd,
        frequency=stimulus.frequency, cout=stimulus.cout,
        input_amplitude=vdd, rout=stimulus.rout)


@engine("spice", title="Transistor-level MNA shooting PSS")
class SpiceEngine(Engine):
    """Level-1 MOSFET netlist solved to periodic steady state.

    The only engine that sees gate timing, dynamic internal power and
    arbitrary (multi-frequency, time-varying) stimuli — the fidelity
    behind the paper's figures.
    """

    def evaluate(self, design: CellDesign, stimulus: CellStimulus, *,
                 steps_per_period: int = DEFAULT_STEPS,
                 solver: str = "auto",
                 **options: Any) -> float:
        pss = shooting(_bench(design, stimulus, vdd=stimulus.vdd),
                       1.0 / stimulus.frequency, observe=["out"],
                       steps_per_period=steps_per_period, solver=solver)
        return pss.average("out")

    def sweep_supply(self, design: CellDesign, stimulus: CellStimulus,
                     vdd_values: Sequence[float],
                     **options: Any) -> np.ndarray:
        """Supply sweep: the one-row case of :meth:`sweep_grid`."""
        return self.sweep_grid(design, [stimulus], vdd_values,
                               **options)[0]

    def sweep_grid(self, design: CellDesign,
                   stimuli: Sequence[CellStimulus],
                   vdd_values: Sequence[float], *,
                   steps_per_period: int = DEFAULT_STEPS,
                   solver: str = "auto",
                   **options: Any) -> np.ndarray:
        """``(stimulus, supply)`` grid as one stacked MNA solve.

        Every point is bit-identical to its one-point :meth:`evaluate`;
        stimuli may differ in duty and frequency.
        """
        stimuli = self.check_stimuli(stimuli)
        vdds = self.check_vdd_grid(vdd_values)
        points = [(stimulus, float(v)) for stimulus in stimuli
                  for v in vdds]
        pss = shooting_batch(
            [_bench(design, stimulus, vdd=v) for stimulus, v in points],
            [1.0 / stimulus.frequency for stimulus, _ in points],
            observe=["out"], steps_per_period=steps_per_period,
            solver=solver)
        return np.asarray(pss.averages("out"), dtype=float).reshape(
            len(stimuli), vdds.size)

    def monte_carlo(self, design: CellDesign, stimulus: CellStimulus,
                    n_trials: int, *, seed: Optional[int] = None,
                    sampler: Optional[MonteCarloSampler] = None,
                    steps_per_period: int = DEFAULT_STEPS,
                    solver: str = "auto",
                    **options: Any) -> np.ndarray:
        n = self.check_trials(n_trials)
        sampler = sampler or MonteCarloSampler(seed=seed)
        circuits: List[Circuit] = []
        for _ in range(n):
            # Scalar draw order: NMOS then PMOS per trial.
            nm = sampler.sample(design.wn, design.length)
            pm = sampler.sample(design.wp, design.length)
            perturbed = replace(design, nmos=nm.apply(design.nmos),
                                pmos=pm.apply(design.pmos))
            circuits.append(_bench(perturbed, stimulus, vdd=stimulus.vdd))
        pss = shooting_batch(circuits, 1.0 / stimulus.frequency,
                             observe=["out"],
                             steps_per_period=steps_per_period,
                             solver=solver)
        return pss.averages("out")

    def capabilities(self) -> EngineCapabilities:
        return _CAPS
