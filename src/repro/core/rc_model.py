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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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

    def is_up(self, frac: float) -> bool:
        """Is the leg up at period fraction ``frac`` in [0, 1)?"""
        if self.duty >= 1.0:
            return True
        if self.duty <= 0.0:
            return False
        rel = (frac - self.phase) % 1.0
        return rel < self.duty

    def edge_fractions(self) -> "list[float]":
        if self.duty <= 0.0 or self.duty >= 1.0:
            return []
        return [self.phase % 1.0, (self.phase + self.duty) % 1.0]


@dataclass(frozen=True)
class _Interval:
    """One constant-topology interval of the hyperperiod."""

    dt: float
    g_total: float
    v_inf: float
    g_up: float      # total conductance of up legs (supply-connected)
    alpha: float     # exp(-G dt / C)


class RcSolution:
    """Closed-form periodic steady state of the summing node."""

    def __init__(self, intervals: List[_Interval], v0: float, period: float,
                 cout: float, vdd: float):
        self._intervals = intervals
        self.v0 = v0
        self.period = period
        self.cout = cout
        self.vdd = vdd

    # -- exact reductions -------------------------------------------------

    def average_voltage(self) -> float:
        """Exact period-average of the node voltage."""
        total = 0.0
        v = self.v0
        for iv in self._intervals:
            # integral of v over the interval
            total += iv.v_inf * iv.dt + (v - iv.v_inf) * (
                self.cout / iv.g_total) * (1.0 - iv.alpha)
            v = iv.v_inf + (v - iv.v_inf) * iv.alpha
        return total / self.period

    def ripple(self) -> float:
        """Peak-to-peak voltage over the period.

        Extremes occur at interval boundaries because each segment is
        monotone (exponential toward its asymptote).
        """
        vs = [self.v0]
        v = self.v0
        for iv in self._intervals:
            v = iv.v_inf + (v - iv.v_inf) * iv.alpha
            vs.append(v)
        return max(vs) - min(vs)

    def supply_power(self) -> float:
        """Exact average power drawn from ``Vdd`` through the up legs.

        On each interval the supply current is ``g_up*(Vdd - v)``; the
        integral of ``v`` is known in closed form.
        """
        energy = 0.0
        v = self.v0
        for iv in self._intervals:
            int_v = iv.v_inf * iv.dt + (v - iv.v_inf) * (
                self.cout / iv.g_total) * (1.0 - iv.alpha)
            energy += self.vdd * iv.g_up * (self.vdd * iv.dt - int_v)
            v = iv.v_inf + (v - iv.v_inf) * iv.alpha
        return energy / self.period

    def waveform(self, samples_per_interval: int = 20) -> Waveform:
        """Sampled node voltage over one period (for plotting/tests)."""
        ts: List[float] = []
        ys: List[float] = []
        t = 0.0
        v = self.v0
        for iv in self._intervals:
            tau = self.cout / iv.g_total
            local = np.linspace(0.0, iv.dt, samples_per_interval,
                                endpoint=False)
            ts.extend(t + local)
            ys.extend(iv.v_inf + (v - iv.v_inf) * np.exp(-local / tau))
            v = iv.v_inf + (v - iv.v_inf) * iv.alpha
            t += iv.dt
        ts.append(self.period)
        ys.append(v)
        return Waveform(np.asarray(ts), np.asarray(ys), "rc_out")

    def settling_time_constant(self) -> float:
        """Slowest effective time constant over the period (seconds)."""
        return max(self.cout / iv.g_total for iv in self._intervals)


class RcBatchSolution:
    """Periodic steady state of a whole batch of leg sets at once.

    The counterpart of :class:`RcSolution` for the vectorised engine:
    every reduction returns one value per batch element (numpy arrays of
    shape ``(B,)``).  Interval quantities are stored as ``(K, B)`` arrays
    where ``K`` is the number of constant-topology intervals shared by
    the batch.
    """

    def __init__(self, dts: np.ndarray, g_total: np.ndarray,
                 v_inf: np.ndarray, g_up: np.ndarray, alpha: np.ndarray,
                 v0: np.ndarray, period: float, cout: float,
                 vdd: np.ndarray):
        self._dts = dts          # (K,)
        self._g_total = g_total  # (K, B)
        self._v_inf = v_inf      # (K, B)
        self._g_up = g_up        # (K, B)
        self._alpha = alpha      # (K, B)
        self.v0 = v0             # (B,)
        self.period = period
        self.cout = cout
        self.vdd = vdd           # (B,)

    def average_voltage(self) -> np.ndarray:
        """Exact period-average of the node voltage, per batch element."""
        total = np.zeros_like(self.v0)
        v = self.v0
        for k in range(len(self._dts)):
            total += self._v_inf[k] * self._dts[k] + (v - self._v_inf[k]) * (
                self.cout / self._g_total[k]) * (1.0 - self._alpha[k])
            v = self._v_inf[k] + (v - self._v_inf[k]) * self._alpha[k]
        return total / self.period

    def ripple(self) -> np.ndarray:
        """Peak-to-peak node voltage over the period, per batch element."""
        v = self.v0
        lo = np.array(v, copy=True)
        hi = np.array(v, copy=True)
        for k in range(len(self._dts)):
            v = self._v_inf[k] + (v - self._v_inf[k]) * self._alpha[k]
            np.minimum(lo, v, out=lo)
            np.maximum(hi, v, out=hi)
        return hi - lo

    def supply_power(self) -> np.ndarray:
        """Exact average supply power through the up legs, per element."""
        energy = np.zeros_like(self.v0)
        v = self.v0
        for k in range(len(self._dts)):
            int_v = self._v_inf[k] * self._dts[k] + (v - self._v_inf[k]) * (
                self.cout / self._g_total[k]) * (1.0 - self._alpha[k])
            energy += self.vdd * self._g_up[k] * (
                self.vdd * self._dts[k] - int_v)
            v = self._v_inf[k] + (v - self._v_inf[k]) * self._alpha[k]
        return energy / self.period


class RcBatchSolver:
    """Vectorised :class:`RcSwitchSolver` over a batch of conductance sets.

    All batch elements share the *switching pattern* — per-leg duty and
    phase, hence the constant-topology intervals — while resistances and
    rail voltages vary per element: exactly the structure of a
    Monte-Carlo mismatch campaign, where every trial perturbs device
    geometry but none touches the PWM stimulus.  One solve replaces
    ``B`` scalar solves, turning the per-trial Python loop into ``K``
    (≈ two edges per leg) numpy passes over ``(B, L)`` arrays.

    Parameters
    ----------
    duty, phase:
        Per-leg switching pattern, shape ``(L,)``.
    r_up, r_down:
        Per-element leg resistances, shape ``(B, L)``.
    v_up:
        Rail behind the up resistance: scalar or ``(B,)`` (a drooping
        supply varies per trial, e.g. in yield campaigns).
    """

    def __init__(self, duty, phase, r_up, r_down, *, v_up, v_down=0.0,
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
        self.v_down = np.broadcast_to(
            np.asarray(v_down, float), (batch,)).astype(float)
        self.cout = cout
        self.period = period

    def _interval_fractions(self) -> "list[float]":
        edges = {0.0, 1.0}
        for duty, phase in zip(self.duty, self.phase):
            if 0.0 < duty < 1.0:
                edges.add(float(phase) % 1.0)
                edges.add(float(phase + duty) % 1.0)
        ordered = sorted(edges)
        if ordered[-1] != 1.0:
            ordered.append(1.0)
        return ordered

    @telemetry.traced("rc.solve", tags=lambda self: {
        "kind": "batch", "points": int(self.r_up.shape[0])})
    def solve(self) -> RcBatchSolution:
        fractions = self._interval_fractions()
        g_up_legs = 1.0 / self.r_up      # (B, L)
        g_down_legs = 1.0 / self.r_down  # (B, L)
        dts, g_tots, v_infs, g_ups, alphas = [], [], [], [], []
        for f0, f1 in zip(fractions[:-1], fractions[1:]):
            if f1 - f0 <= 1e-15:
                continue
            mid = 0.5 * (f0 + f1)
            rel = (mid - self.phase) % 1.0
            up = np.where(self.duty >= 1.0, True,
                          np.where(self.duty <= 0.0, False, rel < self.duty))
            g = np.where(up, g_up_legs, g_down_legs)          # (B, L)
            g_total = g.sum(axis=1)                           # (B,)
            g_up = np.where(up, g_up_legs, 0.0).sum(axis=1)   # (B,)
            b = np.where(up, g * self.v_up[:, None],
                         g * self.v_down[:, None]).sum(axis=1)
            dt = (f1 - f0) * self.period
            dts.append(dt)
            g_tots.append(g_total)
            v_infs.append(b / g_total)
            g_ups.append(g_up)
            alphas.append(np.exp(-g_total * dt / self.cout))
        g_total = np.stack(g_tots)
        v_inf = np.stack(v_infs)
        g_up = np.stack(g_ups)
        alpha = np.stack(alphas)
        # Compose the affine interval maps v -> a*v + b over the period.
        a_total = np.ones_like(g_total[0])
        b_total = np.zeros_like(g_total[0])
        for k in range(len(dts)):
            a_total = alpha[k] * a_total
            b_total = alpha[k] * b_total + v_inf[k] * (1.0 - alpha[k])
        if np.any(a_total >= 1.0):
            raise AnalysisError("period map is not contracting; check legs")
        v0 = b_total / (1.0 - a_total)
        return RcBatchSolution(np.asarray(dts), g_total, v_inf, g_up, alpha,
                               v0, self.period, self.cout, self.v_up)


class RcSwitchSolver:
    """Exact periodic solver for a set of same-period legs.

    All legs must share one switching period (arbitrary phases and
    duties).  For multi-frequency inputs use the transistor engine; the
    behavioural model is frequency-independent by construction.
    """

    def __init__(self, legs: Sequence[RcLeg], *, cout: float, period: float,
                 vdd: float):
        if not legs:
            raise AnalysisError("need at least one leg")
        if cout <= 0:
            raise AnalysisError("cout must be positive")
        if period <= 0:
            raise AnalysisError("period must be positive")
        self.legs = list(legs)
        self.cout = cout
        self.period = period
        self.vdd = vdd

    def _interval_fractions(self) -> "list[float]":
        edges = {0.0, 1.0}
        for leg in self.legs:
            for e in leg.edge_fractions():
                edges.add(e % 1.0)
        ordered = sorted(edges)
        if ordered[-1] != 1.0:
            ordered.append(1.0)
        return ordered

    @telemetry.traced("rc.solve", tags=lambda self: {
        "kind": "switch", "legs": len(self.legs)})
    def solve(self) -> RcSolution:
        fractions = self._interval_fractions()
        intervals: List[_Interval] = []
        for f0, f1 in zip(fractions[:-1], fractions[1:]):
            if f1 - f0 <= 1e-15:
                continue
            mid = 0.5 * (f0 + f1)
            g_total = 0.0
            g_up = 0.0
            b = 0.0
            for leg in self.legs:
                if leg.is_up(mid):
                    g = 1.0 / leg.r_up
                    g_up += g
                    b += g * leg.v_up
                else:
                    g = 1.0 / leg.r_down
                    b += g * leg.v_down
                g_total += g
            dt = (f1 - f0) * self.period
            alpha = math.exp(-g_total * dt / self.cout)
            intervals.append(_Interval(dt=dt, g_total=g_total,
                                       v_inf=b / g_total, g_up=g_up,
                                       alpha=alpha))
        # Compose the affine interval maps v -> a*v + b over the period.
        a_total = 1.0
        b_total = 0.0
        for iv in intervals:
            a_total = iv.alpha * a_total
            b_total = iv.alpha * b_total + iv.v_inf * (1.0 - iv.alpha)
        if a_total >= 1.0:
            raise AnalysisError("period map is not contracting; check legs")
        v0 = b_total / (1.0 - a_total)
        return RcSolution(intervals, v0, self.period, self.cout, self.vdd)
