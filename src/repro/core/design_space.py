"""Design-space exploration: the sizing sweeps behind the paper's Table I.

The paper states its parameters "have been optimized after extensive
sweep experiments" that it does not report.  These helpers regenerate
that missing analysis: linearity versus ``Rout`` (why 100 kΩ), ripple
and settling versus ``Cout`` (why 1 pF for the cell and 10 pF for the
adder), and the power cost of each choice — the data behind the ablation
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..circuit.measure import max_linearity_error, r_squared
from .cells import CellDesign
from .rc_model import RcLeg, RcSolution, RcSwitchSolver


@dataclass(frozen=True)
class CellOperatingPoint:
    """Electrical conditions for a single-cell sweep."""

    vdd: float = 2.5
    frequency: float = 500e6
    cout: float = 1e-12


def _cell_solution(design: CellDesign, op: CellOperatingPoint,
                   leg_duty: float, cout: Optional[float] = None) -> RcSolution:
    """Switch-level steady state of one cell's output leg."""
    leg = RcLeg(r_up=design.pull_up_resistance(op.vdd),
                r_down=design.pull_down_resistance(op.vdd),
                duty=leg_duty, v_up=op.vdd)
    return RcSwitchSolver([leg], cout=op.cout if cout is None else cout,
                          period=1.0 / op.frequency, vdd=op.vdd).solve()


def cell_transfer_curve(design: CellDesign, op: CellOperatingPoint,
                        duties: Sequence[float]) -> "list[float]":
    """Switch-level transfer curve ``Vout(duty)`` of the inverter cell.

    The inverter pulls up while the input is *low*, so the leg duty is
    the complement of the input duty.
    """
    return [_cell_solution(design, op, 1.0 - float(duty)).average_voltage()
            for duty in duties]


@dataclass(frozen=True)
class RoutAblationPoint:
    rout: float
    r2: float
    max_error: float       # worst deviation from the best linear fit, V
    static_power: float    # average supply power at 50% duty, W


def rout_ablation(routs: Sequence[float], *,
                  design: Optional[CellDesign] = None,
                  op: CellOperatingPoint = CellOperatingPoint(),
                  n_points: int = 21) -> List[RoutAblationPoint]:
    """Linearity and power versus output resistor (paper Fig. 4 rationale)."""
    design = design or CellDesign()
    duties = np.linspace(0.0, 1.0, n_points)
    points = []
    for rout in routs:
        if rout <= 0:
            raise AnalysisError("rout values must be positive")
        d = replace(design, rout=float(rout) * design.scale)
        curve = cell_transfer_curve(d, op, duties)
        sol = _cell_solution(d, op, 0.5)
        points.append(RoutAblationPoint(
            rout=float(rout),
            r2=r_squared(duties, curve),
            max_error=max_linearity_error(duties, curve),
            static_power=sol.supply_power()))
    return points


@dataclass(frozen=True)
class CoutAblationPoint:
    cout: float
    ripple: float          # peak-to-peak output ripple at 50% duty, V
    settling_time: float   # ~5 tau of the slowest interval, s


def cout_ablation(couts: Sequence[float], *,
                  design: Optional[CellDesign] = None,
                  op: CellOperatingPoint = CellOperatingPoint()) -> List[CoutAblationPoint]:
    """Ripple/settling trade-off versus output capacitor."""
    design = design or CellDesign()
    points = []
    for cout in couts:
        if cout <= 0:
            raise AnalysisError("cout values must be positive")
        sol = _cell_solution(design, op, 0.5, cout=float(cout))
        points.append(CoutAblationPoint(
            cout=float(cout),
            ripple=sol.ripple(),
            settling_time=5.0 * sol.settling_time_constant()))
    return points


def recommend_rout(*, design: Optional[CellDesign] = None,
                   op: CellOperatingPoint = CellOperatingPoint(),
                   min_r2: float = 0.999,
                   candidates: Optional[Sequence[float]] = None) -> float:
    """Smallest Rout meeting the linearity target (smaller = faster)."""
    candidates = list(candidates) if candidates is not None else \
        [1e3, 2e3, 5e3, 10e3, 20e3, 50e3, 100e3, 200e3, 500e3]
    for point in rout_ablation(sorted(candidates), design=design, op=op):
        if point.r2 >= min_r2:
            return point.rout
    raise AnalysisError(
        f"no candidate Rout reaches r^2 >= {min_r2}; largest tried "
        f"{max(candidates):.3g}")


def recommend_cout(*, design: Optional[CellDesign] = None,
                   op: CellOperatingPoint = CellOperatingPoint(),
                   max_ripple: float = 0.02,
                   candidates: Optional[Sequence[float]] = None) -> float:
    """Smallest Cout meeting the ripple target (smaller = faster settling)."""
    candidates = list(candidates) if candidates is not None else \
        [0.1e-12, 0.2e-12, 0.5e-12, 1e-12, 2e-12, 5e-12, 10e-12, 20e-12]
    for point in cout_ablation(sorted(candidates), design=design, op=op):
        if point.ripple <= max_ripple:
            return point.cout
    raise AnalysisError(
        f"no candidate Cout reaches ripple <= {max_ripple:.3g} V")
