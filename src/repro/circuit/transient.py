"""Transient analysis with breakpoint-aware stepping.

The engine integrates with trapezoidal companions by default, dropping to
backward Euler for a couple of steps after every source breakpoint (the
standard damping trick that suppresses trapezoidal ringing at corners).
On Newton failure the step is halved and retried.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from .. import telemetry
from .dc import operating_point
from .exceptions import AnalysisError, ConvergenceError
from .mna import MnaContext
from .netlist import Circuit
from .waveform import Waveform

#: Steps integrated with backward Euler right after each breakpoint.
BE_STEPS_AFTER_BREAKPOINT = 2

#: Smallest allowed time step before the engine gives up, seconds.
MIN_STEP = 1e-18


class TransientResult:
    """Sampled solution of a transient run."""

    def __init__(self, circuit: Circuit, t: np.ndarray, X: np.ndarray,
                 halvings: int = 0):
        self.circuit = circuit
        self.t = t
        self.X = X
        #: Step-size halvings taken after Newton failures.
        self.halvings = halvings

    @property
    def final_x(self) -> np.ndarray:
        return self.X[-1].copy()

    def node(self, name: str) -> Waveform:
        """Node voltage waveform."""
        idx = self.circuit.node_index(name)
        if idx < 0:
            return Waveform(self.t, np.zeros_like(self.t), name)
        return Waveform(self.t, self.X[:, idx], name)

    def branch_current(self, element_name: str) -> Waveform:
        """Branch current of a voltage source or inductor (a→b through
        the element; negative = delivering power for a supply)."""
        el = self.circuit.element(element_name)
        if not el._branch:
            raise AnalysisError(f"{element_name!r} has no branch current")
        return Waveform(self.t, self.X[:, el._branch[0]],
                        f"I({element_name})")

    def supply_power(self, source_name: str) -> Waveform:
        """Instantaneous power *delivered by* the named voltage source."""
        el = self.circuit.element(source_name)
        if not el._branch:
            raise AnalysisError(f"{source_name!r} has no branch current")
        v = np.array([el.value(tk) for tk in self.t])
        i = self.X[:, el._branch[0]]
        return Waveform(self.t, -v * i, f"P({source_name})")

    def average_power(self, source_name: str) -> float:
        return self.supply_power(source_name).average()

    def __repr__(self) -> str:
        return (
            f"<TransientResult {self.circuit.name!r} samples={len(self.t)} "
            f"t=[{self.t[0]:.4g}, {self.t[-1]:.4g}]s>"
        )


def _note_steps(rt, span, result: TransientResult) -> None:
    """Step and halving counters of one finished transient run."""
    span.set_tag("steps", len(result.t) - 1)
    rt.count("repro_mna_steps_total", len(result.t) - 1)
    rt.count("repro_mna_step_halvings_total", result.halvings)


@telemetry.traced("mna.transient",
                  tags=lambda circuit, *_, method, **__: {
                      "circuit": circuit.name, "method": method},
                  done=_note_steps)
def transient(circuit: Circuit, tstop: float, dt: float, *,
              tstart: float = 0.0, method: str = "trap",
              ic: Optional[Mapping[str, float]] = None, uic: bool = False,
              x0: Optional[np.ndarray] = None,
              ctx: Optional[MnaContext] = None,
              max_retries: int = 10,
              solver: str = "auto") -> TransientResult:
    """Integrate the circuit from ``tstart`` to ``tstop``.

    Parameters
    ----------
    dt:
        Nominal (maximum) step.  The engine always lands exactly on
        source breakpoints and halves the step on Newton failures.
    ic:
        Node-voltage initial conditions.  With ``uic=True`` they are used
        verbatim (skipping the DC operating point); otherwise the DC
        operating point at ``tstart`` is computed first and then
        overridden at the listed nodes.
    x0:
        Full initial solution vector (overrides the operating point, used
        by the PSS engine for warm restarts).
    solver:
        Linear-solve backend for the MNA systems ("auto"/"dense"/
        "sparse", see :mod:`repro.circuit.sparse`).  Ignored when an
        explicit ``ctx`` is supplied (the context owns the choice).
    """
    if tstop <= tstart:
        raise AnalysisError(f"tstop ({tstop}) must exceed tstart ({tstart})")
    if dt <= 0:
        raise AnalysisError("dt must be positive")
    if method not in ("trap", "be"):
        raise AnalysisError(f"unknown integration method {method!r}")
    ctx = ctx or MnaContext(circuit, solver=solver)

    # -- initial state ----------------------------------------------------
    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
    elif uic:
        x = np.zeros(circuit.size)
    else:
        x = operating_point(circuit, t=tstart, ctx=ctx).x.copy()
    if ic:
        for node, v in ic.items():
            idx = circuit.node_index(node)
            if idx >= 0:
                x[idx] = float(v)
    ctx.init_states(x)

    breakpoints = ctx.breakpoints(tstart, tstop)
    bp_iter: List[float] = [b for b in breakpoints if tstart < b < tstop]
    bp_iter.append(tstop)
    bp_pos = 0

    times: List[float] = [tstart]
    states: List[np.ndarray] = [x.copy()]
    t_cur = tstart
    be_countdown = BE_STEPS_AFTER_BREAKPOINT  # initial ramp is a corner too
    eps = dt * 1e-9
    halvings = 0

    while t_cur < tstop - eps:
        while bp_pos < len(bp_iter) and bp_iter[bp_pos] <= t_cur + eps:
            bp_pos += 1
        next_bp = bp_iter[bp_pos] if bp_pos < len(bp_iter) else tstop
        h = min(dt, next_bp - t_cur)
        step_method = "be" if (method == "be" or be_countdown > 0) else "trap"

        x_next = None
        h_try = h
        for _attempt in range(max_retries):
            try:
                x_next = ctx.solve_newton(
                    x, t_cur + h_try, mode="tran", dt=h_try,
                    method=step_method, analysis="transient")
                break
            except ConvergenceError:
                h_try *= 0.5
                step_method = "be"
                halvings += 1
                if h_try < MIN_STEP:
                    break
        if x_next is None:
            raise ConvergenceError(
                "transient step failed even at minimum step size",
                analysis="transient", time=t_cur)

        t_cur += h_try
        ctx.accept_step(x_next, h_try, step_method)
        x = x_next
        times.append(t_cur)
        states.append(x.copy())
        if abs(t_cur - next_bp) <= eps:
            be_countdown = BE_STEPS_AFTER_BREAKPOINT
        elif be_countdown > 0:
            be_countdown -= 1

    return TransientResult(circuit, np.asarray(times), np.vstack(states),
                           halvings)
