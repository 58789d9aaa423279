"""The k x n-bit PWM weighted adder (paper Fig. 3) with three engines.

``engine="behavioral"`` evaluates paper Eq. 2 in closed form;
``engine="rc"`` solves the exact switch-level periodic steady state
(:mod:`repro.core.rc_model`); ``engine="spice"`` builds the full
54-transistor netlist and runs shooting PSS on the Level-1 devices.
The three agree in their shared regime and are cross-validated in the
test suite — use behavioural for training loops, RC for Monte Carlo,
SPICE for the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .. import telemetry
from ..circuit.elements.passives import Capacitor
from ..circuit.elements.sources import PwmVoltage, Vdc, VProfile
from ..circuit.exceptions import AnalysisError
from ..circuit.netlist import Circuit
from ..tech.mosfet_models import on_resistance
from .behavioral import BehavioralAdder, CalibrationModel, eq2_output
from .cells import CellDesign, and_cell_subckt
from .encoding import check_duties, check_weights, max_weight, weight_to_bits
from .rc_model import RcLeg, RcSwitchSolver

if TYPE_CHECKING:
    from ..circuit.pss import PssResult

ENGINES = ("behavioral", "rc", "spice")


def adder_pss(circuits: Sequence[Circuit], period, *,
              observe: Sequence[str], steps_per_period,
              solver: str = "auto") -> List[PssResult]:
    """Shooting PSS of several circuits as one batched solve.

    ``period`` and ``steps_per_period`` take one value or one per
    circuit.  :func:`~repro.circuit.batch_transient.shooting_batch`
    stacks one period run per open point, carrying its period-map
    Jacobian, into one lock-step solve per netlist structure — weight
    bits only rewire MOSFET gates and their capacitors, so a
    weight-pattern sweep is one solve; each result is bit-identical to
    one-point :func:`~repro.circuit.pss.shooting` (pinned by the
    equivalence tests).
    """
    from ..circuit.batch_transient import shooting_batch

    batch = shooting_batch(circuits, period, observe=observe,
                           steps_per_period=steps_per_period,
                           solver=solver)
    return [batch.point(p) for p in range(batch.n_points)]


#: Resolution used when computing the common period of multi-frequency
#: inputs, seconds (1 fs).
_PERIOD_QUANTUM = 1e-15


def common_period(frequencies: Sequence[float], *,
                  max_ratio: int = 64) -> float:
    """Least common period of several PWM frequencies.

    Periods are quantised to 1 fs; the result must stay within
    ``max_ratio`` periods of the fastest input (a guard against
    irrational ratios exploding the simulation window).
    """
    if not frequencies:
        raise AnalysisError("need at least one frequency")
    periods_fs = []
    for f in frequencies:
        if f <= 0:
            raise AnalysisError("frequencies must be positive")
        period_fs = round(1.0 / f / _PERIOD_QUANTUM)
        if abs(period_fs * _PERIOD_QUANTUM * f - 1.0) > 1e-6:
            raise AnalysisError(
                f"period of {f:.6g} Hz is not representable on a 1 fs grid")
        periods_fs.append(period_fs)
    lcm = periods_fs[0]
    for p in periods_fs[1:]:
        lcm = lcm * p // math.gcd(lcm, p)
    if lcm > max_ratio * min(periods_fs):
        raise AnalysisError(
            "frequency ratios too irregular: common period is "
            f"{lcm / min(periods_fs):.0f}x the fastest period "
            f"(limit {max_ratio})")
    return lcm * _PERIOD_QUANTUM


@dataclass(frozen=True)
class AdderConfig:
    """Electrical configuration of a weighted adder instance.

    Defaults are the paper's 3x3 setup: three inputs, 3-bit weights,
    ``Cout = 10 pF`` (Table II text), unit-cell values from Table I.
    """

    n_inputs: int = 3
    n_bits: int = 3
    vdd: float = 2.5
    frequency: float = 500e6
    cout: float = 10e-12
    cell: CellDesign = field(default_factory=CellDesign)
    rise_fraction: float = 0.02

    def __post_init__(self):
        if self.n_inputs < 1:
            raise AnalysisError("adder needs at least one input")
        if self.n_bits < 1:
            raise AnalysisError("weights need at least one bit")
        if self.vdd <= 0 or self.frequency <= 0 or self.cout <= 0:
            raise AnalysisError("vdd, frequency and cout must be positive")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency

    @property
    def weight_limit(self) -> int:
        return max_weight(self.n_bits)

    @property
    def n_cells(self) -> int:
        return self.n_inputs * self.n_bits

    @property
    def transistor_count(self) -> int:
        """6 transistors per AND cell — the paper's headline 54 for 3x3."""
        return 6 * self.n_cells


@dataclass(frozen=True)
class AdderResult:
    """Outcome of one adder evaluation."""

    value: float            # average output voltage, volts
    engine: str
    ripple: float = 0.0     # peak-to-peak output ripple, volts
    power: float = 0.0      # average supply power, watts (0 if unknown)
    theoretical: float = 0.0  # paper Eq. 2 prediction

    @property
    def error(self) -> float:
        """Absolute deviation from Eq. 2, volts."""
        return abs(self.value - self.theoretical)


class WeightedAdder:
    """Multi-engine model of the paper's binary-weighted PWM adder."""

    def __init__(self, config: AdderConfig = AdderConfig(), *,
                 calibration: Optional[CalibrationModel] = None):
        self.config = config
        self._behavioral = BehavioralAdder(
            config.n_inputs, config.n_bits, vdd=config.vdd,
            calibration=calibration)

    # -- closed form ---------------------------------------------------------

    def theoretical_output(self, duties: Sequence[float],
                           weights: Sequence[int],
                           *, vdd: Optional[float] = None) -> float:
        """Paper Eq. 2."""
        return eq2_output(duties, weights, n_bits=self.config.n_bits,
                          vdd=self.config.vdd if vdd is None else vdd)

    # -- netlist ---------------------------------------------------------------

    def build_circuit(self, duties: Sequence[float], weights: Sequence[int],
                      *, vdd: Optional[float] = None,
                      input_amplitude: Optional[float] = None,
                      frequency: Optional[float] = None,
                      frequencies: Optional[Sequence[float]] = None,
                      phases: Optional[Sequence[float]] = None,
                      supply_profile=None) -> Circuit:
        """Full transistor-level bench: PWM sources, cells, shared Cout.

        Weight bits are tied to the supply/ground rails (a zero bit's
        cell still pulls the summing node down through its resistor —
        that is what Eq. 2's denominator models).  ``frequencies`` gives
        each input its own PWM frequency (the paper's "various input
        frequencies" check); it overrides ``frequency``.
        """
        cfg = self.config
        duties = check_duties(duties)
        weights = check_weights(weights, cfg.n_bits)
        if len(duties) != cfg.n_inputs or len(weights) != cfg.n_inputs:
            raise AnalysisError(
                f"expected {cfg.n_inputs} duties and weights, got "
                f"{len(duties)}/{len(weights)}")
        supply = cfg.vdd if vdd is None else vdd
        freq = cfg.frequency if frequency is None else frequency
        if frequencies is not None:
            if len(frequencies) != cfg.n_inputs:
                raise AnalysisError(
                    f"expected {cfg.n_inputs} frequencies, got "
                    f"{len(frequencies)}")
            per_input = [float(f) for f in frequencies]
        else:
            per_input = [freq] * cfg.n_inputs
        phases = list(phases) if phases is not None else [0.0] * cfg.n_inputs

        c = Circuit(f"weighted_adder_{cfg.n_inputs}x{cfg.n_bits}")
        if supply_profile is not None:
            c.add(VProfile("VDD", "vdd", "0", supply_profile,
                           breakpoints=getattr(supply_profile, "breakpoints", None)))
        else:
            c.add(Vdc("VDD", "vdd", "0", supply))
        for i, (duty, phase, f_i) in enumerate(zip(duties, phases, per_input)):
            c.add(PwmVoltage(f"VIN{i}", f"in{i}", "0",
                             v_high=input_amplitude or supply,
                             frequency=f_i, duty=duty,
                             rise_fraction=cfg.rise_fraction, phase=phase))
        for i, weight in enumerate(weights):
            for b, bit in enumerate(weight_to_bits(weight, cfg.n_bits)):
                design = cfg.cell.scaled(float(1 << b))
                cell = and_cell_subckt(design, name=f"cell")
                c.instantiate(cell, f"X{i}_{b}", {
                    "pwm": f"in{i}",
                    "w": "vdd" if bit else "0",
                    "out": "out",
                    "vdd": "vdd",
                })
        c.add(Capacitor("COUT", "out", "0", cfg.cout))
        return c

    # -- switch level -----------------------------------------------------------

    def rc_legs(self, duties: Sequence[float], weights: Sequence[int], *,
                vdd: Optional[float] = None,
                phases: Optional[Sequence[float]] = None,
                cell_overrides: Optional[Dict[int, CellDesign]] = None) -> List[RcLeg]:
        """Switch-level legs for every cell.

        ``cell_overrides`` maps flat cell index (``i*n_bits + b``) to a
        perturbed :class:`CellDesign` — the Monte-Carlo hook.
        """
        cfg = self.config
        duties = check_duties(duties)
        weights = check_weights(weights, cfg.n_bits)
        supply = cfg.vdd if vdd is None else vdd
        phases = list(phases) if phases is not None else [0.0] * cfg.n_inputs
        legs: List[RcLeg] = []
        for i, (duty, weight, phase) in enumerate(zip(duties, weights, phases)):
            for b in range(cfg.n_bits):
                flat = i * cfg.n_bits + b
                design = cfg.cell.scaled(float(1 << b))
                if cell_overrides and flat in cell_overrides:
                    design = cell_overrides[flat]
                bit = (weight >> b) & 1
                legs.append(RcLeg(
                    r_up=design.pull_up_resistance(supply),
                    r_down=design.pull_down_resistance(supply),
                    duty=duty if bit else 0.0,
                    phase=phase,
                    v_up=supply,
                    v_down=0.0,
                ))
        return legs

    # -- unified evaluation --------------------------------------------------------

    @telemetry.traced("adder.evaluate",
                      tags=lambda *_, engine, **__: {"engine": engine})
    def evaluate(self, duties: Sequence[float], weights: Sequence[int], *,
                 engine: str = "rc", vdd: Optional[float] = None,
                 frequency: Optional[float] = None,
                 frequencies: Optional[Sequence[float]] = None,
                 phases: Optional[Sequence[float]] = None,
                 input_amplitude: Optional[float] = None,
                 steps_per_period: int = 100,
                 cell_overrides: Optional[Dict[int, CellDesign]] = None,
                 solver: str = "auto") -> AdderResult:
        """Average output voltage via the selected engine.

        ``frequencies`` (one per input) is supported by the behavioural
        engine (which is frequency-independent by construction) and the
        transistor engine (which runs PSS over the least common period);
        the RC engine requires a shared period.
        """
        if engine not in ENGINES:
            raise AnalysisError(f"unknown engine {engine!r}; use {ENGINES}")
        cfg = self.config
        supply = cfg.vdd if vdd is None else vdd
        freq = cfg.frequency if frequency is None else frequency
        theoretical = self.theoretical_output(duties, weights, vdd=supply)

        if engine == "behavioral":
            value = self._behavioral.output(duties, weights, vdd=supply)
            return AdderResult(value=value, engine=engine,
                               theoretical=theoretical)

        if engine == "rc":
            if frequencies is not None and len(set(frequencies)) > 1:
                raise AnalysisError(
                    "the RC engine needs a shared input period; use the "
                    "spice engine for multi-frequency inputs")
            legs = self.rc_legs(duties, weights, vdd=supply, phases=phases,
                                cell_overrides=cell_overrides)
            solver = RcSwitchSolver(legs, cout=cfg.cout, period=1.0 / freq,
                                    vdd=supply)
            sol = solver.solve()
            return AdderResult(value=sol.average_voltage(), engine=engine,
                               ripple=sol.ripple(), power=sol.supply_power(),
                               theoretical=theoretical)

        return self.evaluate_spice(
            [dict(duties=duties, weights=weights, vdd=supply,
                  frequency=freq, frequencies=frequencies, phases=phases,
                  input_amplitude=input_amplitude)],
            steps_per_period=steps_per_period, solver=solver)[0]

    def evaluate_spice(self, points: Sequence[Dict], *,
                       steps_per_period: int = 100,
                       solver: str = "auto") -> List[AdderResult]:
        """Transistor-level results for many operand points at once.

        Each point is a mapping of :meth:`build_circuit` keywords
        (``duties``, ``weights`` and optionally ``vdd``, ``frequency``,
        ``frequencies``, ``phases``, ``input_amplitude``) plus an
        optional per-point ``steps_per_period``.  All points run as one
        :func:`adder_pss` call and, whatever their weights, share one
        lock-step stack; each result equals its single-point
        :meth:`evaluate` bit for bit.
        """
        circuits, periods, steps, theory = [], [], [], []
        for point in points:
            point = dict(point)
            steps.append(point.pop("steps_per_period", steps_per_period))
            vdd, freq, frequencies = (point.get(k) for k in (
                "vdd", "frequency", "frequencies"))
            supply = self.config.vdd if vdd is None else vdd
            circuits.append(self.build_circuit(**point))
            periods.append(
                common_period(frequencies) if frequencies is not None
                else 1.0 / (self.config.frequency if freq is None else freq))
            theory.append(self.theoretical_output(
                point["duties"], point["weights"], vdd=supply))
        results = adder_pss(circuits, periods, observe=["out"],
                            steps_per_period=steps, solver=solver)
        return [AdderResult(value=pss.average("out"), engine="spice",
                            ripple=pss.ripple("out"),
                            power=pss.supply_power("VDD"),
                            theoretical=t)
                for pss, t in zip(results, theory)]

    def with_calibration(self, calibration: CalibrationModel) -> "WeightedAdder":
        return WeightedAdder(self.config, calibration=calibration)
