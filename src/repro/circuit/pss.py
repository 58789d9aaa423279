"""Periodic steady-state (PSS) analysis via the shooting method.

For a circuit driven by sources periodic in ``T``, the map
``F(x0) = x(T)`` (one period of transient integration from state ``x0``)
has the periodic steady state as its fixed point.  The PWM cells studied
here have output time constants of hundreds of periods, so brute-force
integration to steady state is wasteful; shooting converges in a handful
of periods instead.

The Jacobian of ``F`` is estimated by finite differences over a small
set of *observed* (slow) nodes — by default the nodes that carry explicit
capacitors, which in the perceptron cells are exactly the slow averaging
nodes.  Fast internal nodes re-settle within one period and need no
Newton treatment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import telemetry
from .dc import operating_point
from .elements.passives import Capacitor
from .exceptions import AnalysisError, ConvergenceError
from .mna import MnaContext
from .netlist import Circuit
from .transient import TransientResult, transient
from .waveform import Waveform


class PssResult:
    """Converged periodic steady state over one period."""

    def __init__(self, circuit: Circuit, period: float,
                 final_period: TransientResult, iterations: int,
                 residual: float):
        self.circuit = circuit
        self.period = period
        self.waves = final_period
        self.iterations = iterations
        self.residual = residual

    def node(self, name: str) -> Waveform:
        return self.waves.node(name)

    def average(self, node: str) -> float:
        """Period-average voltage of ``node`` — the perceptron output
        quantity used throughout the paper."""
        return self.waves.node(node).average()

    def ripple(self, node: str) -> float:
        return self.waves.node(node).peak_to_peak()

    def supply_power(self, source_name: str) -> float:
        """Period-average power delivered by the named source, watts."""
        return self.waves.supply_power(source_name).average()

    def __repr__(self) -> str:
        return (
            f"<PssResult {self.circuit.name!r} T={self.period:.4g}s "
            f"iters={self.iterations} residual={self.residual:.3g}>"
        )


def _default_observe(circuit: Circuit) -> List[str]:
    """Nodes carrying explicit capacitors (the designed slow nodes)."""
    names: List[str] = []
    for el in circuit.elements:
        if isinstance(el, Capacitor):
            for node in el.node_names:
                idx = circuit.node_index(node)
                if idx >= 0 and node not in names:
                    names.append(node)
    return names


def _observed(circuit: Circuit, observe: Optional[Sequence[str]]
              ) -> np.ndarray:
    """Indices of the shooting nodes: ``observe``, else the nodes that
    carry explicit capacitors."""
    names = list(observe) if observe else _default_observe(circuit)
    if not names:
        raise AnalysisError(
            "shooting needs at least one observed node; none carry "
            "explicit capacitors and none were given")
    obs_idx = np.array([circuit.node_index(n) for n in names])
    if np.any(obs_idx < 0):
        raise AnalysisError("cannot observe the ground node")
    return obs_idx


def _newton_update(A: np.ndarray, r: np.ndarray,
                   update_limit: float) -> np.ndarray:
    """Solve ``(I - A) dx = r`` (Newton on ``F(x) - x = 0``), falling
    back to fixed-point iteration (``dx = r``) on singular or
    non-finite solves, then clamp to ``update_limit``."""
    try:
        dx = np.linalg.solve(np.eye(len(r)) - A, r)
    except np.linalg.LinAlgError:
        dx = r
    if not np.all(np.isfinite(dx)):
        dx = r
    return np.clip(dx, -update_limit, update_limit)


#: Every :class:`ConvergenceError` out of a shooting solve counts once.
_PSS_FAILURES = (ConvergenceError, "repro_pss_convergence_failures_total")


def _note_pss(rt, span, result: PssResult) -> None:
    """Counters and the iterations tag of one finished shooting solve."""
    span.set_tag("iterations", result.iterations)
    rt.count("repro_pss_solves_total")
    rt.count("repro_pss_iterations_total", result.iterations)


@telemetry.traced("pss.shooting",
                  tags=lambda circuit, *_, **__: {"circuit": circuit.name},
                  done=_note_pss, fails=_PSS_FAILURES)
def shooting(circuit: Circuit, period: float, *, steps_per_period: int = 200,
             observe: Optional[Sequence[str]] = None,
             x0: Optional[np.ndarray] = None, warmup_periods: int = 2,
             max_iterations: int = 15, tol: float = 1e-4,
             fd_delta: float = 5e-3, method: str = "trap",
             update_limit: float = 2.0,
             ctx: Optional[MnaContext] = None,
             solver: str = "auto") -> PssResult:
    """Find the periodic steady state with Newton shooting.

    Parameters
    ----------
    period:
        The driving period (all periodic sources must share it).
    steps_per_period:
        Nominal transient resolution inside one period.
    observe:
        Names of the slow nodes to apply Newton to.  Defaults to the
        nodes with explicit capacitors.
    tol:
        Convergence threshold on the period-map residual, volts.
    fd_delta:
        Finite-difference perturbation for the Jacobian estimate, volts.
    update_limit:
        Per-node clamp on the Newton correction, volts.  Rail-saturated
        slow nodes can make ``(I - A)`` nearly singular through
        finite-difference noise; clamping keeps the update physical and
        the iteration falls back to (fast) fixed-point behaviour there.
    """
    if period <= 0:
        raise AnalysisError("period must be positive")
    circuit.compile()
    ctx = ctx or MnaContext(circuit, solver=solver)
    obs_idx = _observed(circuit, observe)
    dt = period / steps_per_period

    def run_period(x_start: np.ndarray) -> TransientResult:
        return transient(circuit, period, dt, x0=x_start, method=method,
                         ctx=ctx)

    # Starting state: operating point at t=0, then a short warmup so the
    # fast nodes land on their periodic orbits.
    x = operating_point(circuit, t=0.0, ctx=ctx).x.copy() if x0 is None \
        else np.asarray(x0, dtype=float).copy()
    for _ in range(max(warmup_periods, 0)):
        x = run_period(x).final_x

    iterations = 0
    residual = np.inf
    n_obs = len(obs_idx)
    for iterations in range(1, max_iterations + 1):
        base = run_period(x)
        fx = base.final_x
        r = fx[obs_idx] - x[obs_idx]
        residual = float(np.max(np.abs(r)))
        if residual < tol:
            return PssResult(circuit, period, base, iterations, residual)
        # Finite-difference Jacobian of the period map on observed nodes.
        A = np.zeros((n_obs, n_obs))
        for j in range(n_obs):
            x_pert = x.copy()
            x_pert[obs_idx[j]] += fd_delta
            fx_pert = run_period(x_pert).final_x
            A[:, j] = (fx_pert[obs_idx] - fx[obs_idx]) / fd_delta
        # Carry the full end-state (fast nodes) and correct slow nodes.
        x = fx.copy()
        x[obs_idx] = base.X[0][obs_idx] + _newton_update(A, r, update_limit)

    raise ConvergenceError(
        f"shooting did not converge in {max_iterations} iterations "
        f"(residual {residual:.3g} V)", analysis="pss")


def settle_average(circuit: Circuit, period: float, node: str, *,
                   steps_per_period: int = 100, chunk_periods: int = 20,
                   max_chunks: int = 200, tol: float = 1e-3,
                   ic: Optional[dict] = None,
                   method: str = "trap") -> "tuple[float, TransientResult]":
    """Brute-force fallback: integrate until the chunk average settles.

    Returns ``(average, last_chunk_result)``.  Slower than shooting but
    makes no assumption about observability — used to cross-validate the
    shooting engine in tests.
    """
    ctx = MnaContext(circuit)
    dt = period / steps_per_period
    x = operating_point(circuit, t=0.0, ctx=ctx).x.copy()
    if ic:
        for node_name, v in ic.items():
            idx = circuit.node_index(node_name)
            if idx >= 0:
                x[idx] = float(v)
    prev_avg: Optional[float] = None
    result: Optional[TransientResult] = None
    for _chunk in range(max_chunks):
        result = transient(circuit, chunk_periods * period, dt, x0=x,
                           method=method, ctx=ctx)
        avg = result.node(node).average()
        x = result.final_x
        if prev_avg is not None and abs(avg - prev_avg) < tol:
            return avg, result
        prev_avg = avg
    raise ConvergenceError(
        f"settle_average did not converge after {max_chunks} chunks",
        analysis="pss/settle")
