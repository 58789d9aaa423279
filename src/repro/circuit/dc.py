"""DC operating point and DC sweeps.

The operating point is found with plain Newton first; if that fails the
solver falls back to gmin stepping, then source stepping — the same
homotopy ladder a production SPICE uses.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from .exceptions import ConvergenceError
from .mna import MnaContext
from .netlist import Circuit


class OpPoint:
    """Solved operating point with name-based accessors."""

    def __init__(self, circuit: Circuit, x: np.ndarray, t: float = 0.0):
        self.circuit = circuit
        self.x = x
        self.t = t

    def voltage(self, node: str) -> float:
        idx = self.circuit.node_index(node)
        return 0.0 if idx < 0 else float(self.x[idx])

    def branch_current(self, element_name: str) -> float:
        el = self.circuit.element(element_name)
        if not el._branch:
            raise ConvergenceError(
                f"{element_name!r} has no branch current", analysis="op")
        return float(self.x[el._branch[0]])

    def voltages(self) -> "dict[str, float]":
        return {
            name: float(self.x[i])
            for i, name in enumerate(self.circuit.node_names)
        }

    def __repr__(self) -> str:
        return f"<OpPoint t={self.t:.4g} nodes={self.circuit.n_nodes}>"


#: gshunt ladder for gmin stepping, siemens.
_GSHUNT_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 0.0)


def operating_point(circuit: Circuit, *, t: float = 0.0,
                    x0: Optional[np.ndarray] = None,
                    ctx: Optional[MnaContext] = None) -> OpPoint:
    """Solve the DC operating point at time ``t`` (sources evaluated there).

    Capacitors are open, inductors short.
    """
    ctx = ctx or MnaContext(circuit)
    try:
        x = ctx.solve_newton(x0, t, analysis="op")
        return OpPoint(circuit, x, t)
    except ConvergenceError:
        pass
    # gmin stepping.
    x = x0
    try:
        for gshunt in _GSHUNT_LADDER:
            x = ctx.solve_newton(x, t, gshunt=gshunt,
                                 analysis="op/gmin")
        return OpPoint(circuit, x, t)
    except ConvergenceError:
        pass
    # Source stepping.
    x = None
    for scale in np.linspace(0.05, 1.0, 20):
        x = ctx.solve_newton(x, t, source_scale=float(scale),
                             analysis="op/source-step")
    return OpPoint(circuit, x, t)


def dc_sweep(circuit: Circuit, set_value: Callable[[float], None],
             values: Sequence[float], *, t: float = 0.0) -> List[OpPoint]:
    """Solve a chain of operating points while ``set_value`` mutates the
    circuit (typically a source voltage) before each solve.

    The previous solution warm-starts the next point, which is both
    faster and more robust than independent solves.
    """
    points: List[OpPoint] = []
    x_prev: Optional[np.ndarray] = None
    for value in values:
        set_value(float(value))
        ctx = MnaContext(circuit)
        op = operating_point(circuit, t=t, x0=x_prev, ctx=ctx)
        points.append(op)
        x_prev = op.x
    return points
