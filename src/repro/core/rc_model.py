"""Event-driven switch-level solver for the shared summing node.

At the switch level every adder cell is a time-varying Thevenin source:
``Vdd`` behind its pull-up resistance while its AND gate output is high,
ground behind its pull-down resistance otherwise.  The shared node with
``Cout`` then obeys

    C dv/dt = sum_j g_j(t) * (u_j(t) - v)

which is *piecewise linear in time*: between switching events the
solution is an exact exponential.  This module composes those affine
interval maps over one hyperperiod, solves the periodic fixed point in
closed form, and integrates averages and supply current exactly — no
time-stepping error, thousands of times faster than the transistor
engine.  It captures loading, ripple and static divider power; it does
not model internal-gate dynamic power (the transistor engine does).

One numpy solve serves every caller: :class:`RcBatchSolver` solves a
batch of conductance sets that share a switching pattern, and
:class:`RcSwitchSolver` is its front end for one design (a batch of
one), built from :class:`RcLeg` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import telemetry
from ..circuit.exceptions import AnalysisError
from ..circuit.waveform import Waveform


@dataclass(frozen=True)
class RcLeg:
    """One cell seen from the summing node.

    The leg is "up" (driving ``v_up`` through ``r_up``) during
    ``[phase, phase + duty)`` of each period (phases in fractions of the
    period, wrapping), and "down" (driving ``v_down`` through
    ``r_down``) otherwise.
    """

    r_up: float
    r_down: float
    duty: float
    phase: float = 0.0
    v_up: float = 2.5
    v_down: float = 0.0

    def __post_init__(self):
        if self.r_up <= 0 or self.r_down <= 0:
            raise AnalysisError("leg resistances must be positive")
        if not 0.0 <= self.duty <= 1.0:
            raise AnalysisError(f"leg duty must lie in [0, 1], got {self.duty}")
        if not 0.0 <= self.phase < 1.0:
            raise AnalysisError("leg phase must lie in [0, 1)")


def _in_order_sum(per_interval: np.ndarray) -> np.ndarray:
    """Sum ``(K, B)`` over intervals in order, as numpy does only for B > 1,
    so an element's result does not depend on the batch size."""
    return np.cumsum(per_interval, axis=0)[-1]


class RcBatchSolution:
    """Periodic steady state of a whole batch of leg sets at once.

    Every reduction returns one value per batch element (numpy arrays of
    shape ``(B,)``).  Interval quantities are ``(K, B)`` arrays, where
    ``K`` is the number of constant-topology intervals shared by the
    batch, and the node voltage at the ``K + 1`` interval boundaries is
    ``(K + 1, B)``; :meth:`point` views one element as floats.
    """

    def __init__(self, dts: np.ndarray, g_total: np.ndarray,
                 v_inf: np.ndarray, g_up: np.ndarray, v: np.ndarray,
                 int_v: np.ndarray, period: float, cout: float,
                 vdd: np.ndarray):
        self._dts = dts          # (K,)
        self._g_total = g_total  # (K, B)
        self._v_inf = v_inf      # (K, B)
        self._g_up = g_up        # (K, B)
        self._v = v              # (K + 1, B) boundary voltages
        self._int_v = int_v      # (K, B) integral of v over each interval
        self.period = period
        self.cout = cout
        self.vdd = vdd           # (B,)

    def average_voltage(self) -> np.ndarray:
        """Exact period-average of the node voltage, per batch element."""
        return _in_order_sum(self._int_v) / self.period

    def ripple(self) -> np.ndarray:
        """Peak-to-peak node voltage over the period, per batch element.

        Extremes occur at interval boundaries because each segment is
        monotone (exponential toward its asymptote).
        """
        return self._v.max(axis=0) - self._v.min(axis=0)

    def supply_power(self) -> np.ndarray:
        """Exact average power drawn from ``Vdd`` through the up legs.

        On each interval the supply current is ``g_up*(Vdd - v)``; the
        integral of ``v`` is known in closed form.
        """
        energy = self.vdd * self._g_up * (
            self.vdd * self._dts[:, None] - self._int_v)
        return _in_order_sum(energy) / self.period

    def settling_time_constant(self) -> np.ndarray:
        """Slowest effective time constant over the period (seconds)."""
        return (self.cout / self._g_total).max(axis=0)

    def point(self, b: int) -> "RcSolution":
        """Element ``b`` as an :class:`RcSolution` of floats."""
        return RcSolution(self, b)


class RcSolution:
    """One element of an :class:`RcBatchSolution`; reductions are floats."""

    def __init__(self, batch: RcBatchSolution, b: int):
        self._batch = batch
        self._b = b

    def average_voltage(self) -> float:
        return float(self._batch.average_voltage()[self._b])

    def ripple(self) -> float:
        return float(self._batch.ripple()[self._b])

    def supply_power(self) -> float:
        return float(self._batch.supply_power()[self._b])

    def settling_time_constant(self) -> float:
        return float(self._batch.settling_time_constant()[self._b])

    def waveform(self, samples_per_interval: int = 20) -> Waveform:
        """Sampled node voltage over one period (for plotting/tests)."""
        sol, b = self._batch, self._b
        dts = sol._dts
        local = dts[:, None] * (np.arange(samples_per_interval)
                                / samples_per_interval)
        starts = np.concatenate(([0.0], np.cumsum(dts)[:-1]))
        v_inf = sol._v_inf[:, b, None]
        ys = v_inf + (sol._v[:-1, b, None] - v_inf) * np.exp(
            -local * sol._g_total[:, b, None] / sol.cout)
        return Waveform(
            np.append((starts[:, None] + local).ravel(), sol.period),
            np.append(ys.ravel(), sol._v[-1, b]), "rc_out")


def _periodic_solve(duty: np.ndarray, phase: np.ndarray, r_up: np.ndarray,
                    r_down: np.ndarray, v_up: np.ndarray, *, cout: float,
                    period: float) -> RcBatchSolution:
    """The periodic steady state of ``(B, L)`` legs over a ``(L,)``
    switching pattern; down legs drive ground, up legs ``v_up`` ``(B,)``.
    """
    # Every leg edge splits the period into constant-topology intervals
    # (coincident edges leave empty ones, which are dropped).
    toggles = (duty > 0.0) & (duty < 1.0)
    edges = np.sort(np.concatenate((
        [0.0, 1.0], phase[toggles] % 1.0,
        (phase[toggles] + duty[toggles]) % 1.0)))
    keep = edges[1:] - edges[:-1] > 1e-15
    f0, f1 = edges[:-1][keep], edges[1:][keep]
    dts = (f1 - f0) * period                                    # (K,)
    rel = (0.5 * (f0 + f1)[:, None] - phase) % 1.0              # (K, L)
    up = ((duty >= 1.0) | ((duty > 0.0) & (rel < duty)))[:, None, :]
    g_up_legs = 1.0 / r_up                                      # (B, L)
    g_up_on = np.where(up, g_up_legs, 0.0)                      # (K, B, L)
    g_total = np.where(up, g_up_legs, 1.0 / r_down).sum(axis=2)  # (K, B)
    g_up = g_up_on.sum(axis=2)
    v_inf = (g_up_on * v_up[:, None]).sum(axis=2) / g_total
    alpha = np.exp(-g_total * dts[:, None] / cout)
    # Compose the affine interval maps v -> alpha*v + shift over the
    # period, then carry the fixed point across the interval boundaries.
    a_total = alpha.prod(axis=0)
    if (a_total >= 1.0).any():
        raise AnalysisError("period map is not contracting; check legs")
    shift = v_inf * (1.0 - alpha)
    b_total = shift[0]
    for a_k, s_k in zip(alpha[1:], shift[1:]):
        b_total = a_k * b_total + s_k
    v = [b_total / (1.0 - a_total)]
    for a_k, v_k in zip(alpha, v_inf):
        v.append(v_k + (v[-1] - v_k) * a_k)
    v = np.array(v)                                             # (K+1, B)
    int_v = v_inf * dts[:, None] + (v[:-1] - v_inf) * (
        cout / g_total) * (1.0 - alpha)
    return RcBatchSolution(dts, g_total, v_inf, g_up, v, int_v, period,
                           cout, v_up)


class RcBatchSolver:
    """Periodic RC solve over a batch of conductance sets.

    All batch elements share the *switching pattern* — per-leg duty and
    phase, hence the constant-topology intervals — while resistances and
    rail voltages vary per element: exactly the structure of a
    Monte-Carlo mismatch campaign, where every trial perturbs device
    geometry but none touches the PWM stimulus.  One solve builds every
    interval's conductances for the whole batch from a ``(K, L)`` up-mask
    (``K`` ≈ two edges per leg).

    Parameters
    ----------
    duty, phase:
        Per-leg switching pattern, shape ``(L,)``.
    r_up, r_down:
        Per-element leg resistances, shape ``(B, L)``.
    v_up:
        Rail behind the up resistance: scalar or ``(B,)`` (a drooping
        supply varies per trial, e.g. in yield campaigns).  It is also
        the supply whose power :meth:`RcBatchSolution.supply_power`
        reports; down legs drive ground.
    """

    def __init__(self, duty, phase, r_up, r_down, *, v_up,
                 cout: float, period: float):
        self.duty = np.atleast_1d(np.asarray(duty, float))
        self.phase = np.atleast_1d(np.asarray(phase, float))
        self.r_up = np.atleast_2d(np.asarray(r_up, float))
        self.r_down = np.atleast_2d(np.asarray(r_down, float))
        n_legs = self.duty.shape[0]
        if self.phase.shape[0] != n_legs:
            raise AnalysisError("duty and phase must have one entry per leg")
        if self.r_up.shape[1] != n_legs or self.r_down.shape[1] != n_legs:
            raise AnalysisError(
                f"resistance arrays must be (batch, {n_legs})")
        if np.any(self.r_up <= 0) or np.any(self.r_down <= 0):
            raise AnalysisError("leg resistances must be positive")
        if np.any(self.duty < 0) or np.any(self.duty > 1):
            raise AnalysisError("leg duties must lie in [0, 1]")
        if cout <= 0 or period <= 0:
            raise AnalysisError("cout and period must be positive")
        batch = self.r_up.shape[0]
        self.v_up = np.broadcast_to(
            np.asarray(v_up, float), (batch,)).astype(float)
        self.cout = cout
        self.period = period

    @telemetry.traced("rc.solve", tags=lambda self: {
        "kind": "batch", "points": int(self.r_up.shape[0])})
    def solve(self) -> RcBatchSolution:
        return _periodic_solve(self.duty, self.phase, self.r_up,
                               self.r_down, self.v_up, cout=self.cout,
                               period=self.period)


class RcSwitchSolver:
    """Exact periodic solver for one set of same-period legs.

    The legs front end of :class:`RcBatchSolver`: the legs become a
    batch of one and :meth:`solve` returns its :class:`RcSolution`.
    All legs must share one switching period (arbitrary phases and
    duties), pull up to ``vdd`` and down to ground.  For multi-frequency
    inputs use the transistor engine; the behavioural model is
    frequency-independent by construction.
    """

    def __init__(self, legs: Sequence[RcLeg], *, cout: float, period: float,
                 vdd: float):
        if not legs:
            raise AnalysisError("need at least one leg")
        if cout <= 0:
            raise AnalysisError("cout must be positive")
        if period <= 0:
            raise AnalysisError("period must be positive")
        if any(leg.v_up != vdd or leg.v_down != 0.0 for leg in legs):
            raise AnalysisError(
                "every leg must pull up to vdd and down to ground")
        self.legs = list(legs)
        self.cout = cout
        self.period = period
        self.vdd = vdd

    @telemetry.traced("rc.solve", tags=lambda self: {
        "kind": "switch", "legs": len(self.legs)})
    def solve(self) -> RcSolution:
        legs = self.legs
        return _periodic_solve(
            np.array([leg.duty for leg in legs]),
            np.array([leg.phase for leg in legs]),
            np.array([[leg.r_up for leg in legs]]),
            np.array([[leg.r_down for leg in legs]]),
            np.array([float(self.vdd)]), cout=self.cout,
            period=self.period).point(0)
