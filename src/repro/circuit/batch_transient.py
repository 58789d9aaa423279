"""The MNA time stepper: lock-step transient and shooting PSS.

Every transient and periodic-steady-state run goes through
:class:`BatchTransientSolver`; :func:`repro.circuit.transient.transient`
and :func:`shooting` are its one-lane calls.

A sweep of one bench — supply, duty cycle, frequency, weight pattern,
Monte-Carlo draws — is a family of circuits that share *structure*:
the same node names and the same elements (type, name, branches), with
every element other than a MOSFET or a capacitor on the same nodes.
Points differ in element values, source timing, and MOSFET/capacitor
terminals, which is how a weight bit wires a cell's gate to the supply
on one point and to ground on another.  Such a family integrates as one
stack of lanes, so the Python stepping machinery (breakpoint handling,
companion updates, Newton bookkeeping) runs once per step for all of
them; that overhead, not LAPACK, dominates the wall clock for the
paper's small benches.

The stepper is *ragged*: every lane keeps its own breakpoint list,
step size, time, backward-Euler countdown and step-halving retries; the
loop advances by step index, and a lane that reaches its stop time
leaves the working set.  Steps are *graded*: each lane's grid restarts
at ``dt/FIRST_STEP_DIVISOR`` at its start and at every source
breakpoint, where a PWM cell's grid error sits, and grows by
``STEP_GROWTH`` per step up to ``dt``, the largest step.  The grid is
planned per circuit and timing, so every shooting iteration integrates
on the same grid, and every step of a ladder rung's size reuses the
run's matrices for that rung.  Each Newton pass stamps all ``(B, M)`` MOSFETs
at once through per-point terminal, scatter and sign tables (built once
per solver, gathered once per run), then any other nonlinear element
(switches) lane by lane, and solves one stacked ``(B, S, S)`` system.
Capacitors and inductors are vectorised trapezoidal/backward-Euler
companions.  A table entry that a point does not stamp (a ground
terminal) adds ``+-0.0`` to its own lane's block, so every G and I cell
sums its terms in one fixed element order.  Because the stack is
block-diagonal, each lane's iterates — including the halved retries
after a Newton failure, which only that lane takes — do not depend on
the other lanes: a point's result in a batch equals its one-lane run
bit for bit (pinned by ``tests/test_sparse_mna.py``, and against the
recorded output of the former scalar step loop by
``tests/fixtures/scalar_mna_reference.json``).

:func:`shooting_batch` lifts the same trick to periodic steady state:
each iteration integrates one period per open point as one lock-step
run, one lane per point.  The run carries the sensitivity columns
``phi = dx(t)/dx(0)[:, observed]`` alongside the state: every Newton
pass solves them as extra right-hand-side columns of the same stacked
system, with the companion histories' sensitivities as their
right-hand side, and ``phi(T)`` is the period map's exact Jacobian on
the observed nodes (Aprille & Trick 1972; Kundert et al. 1990).  Plain
transients carry no such columns.  A point's PSS is captured at the
iteration where *it* converges.  Points group by the structure above,
so a weight-pattern sweep of the adder or the perceptron is one group.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..tech.mosfet_models import ids_full_vec
from .dc import operating_point
from .elements.base import SOURCE
from .elements.mosfet import GMIN_DS, Mosfet
from .elements.passives import Capacitor, Inductor
from .elements.sources import VoltageSource
from .exceptions import AnalysisError, ConvergenceError
from .mna import (
    NEWTON_ABSTOL,
    NEWTON_ITOL,
    NEWTON_MAX_ITER,
    NEWTON_RELTOL,
    NEWTON_VLIMIT,
    MnaContext,
)
from .netlist import Circuit
from .sparse import (
    check_solver,
    choose_backend,
    matrix_fill,
    sparse_solve,
    sparse_solve_batch,
)
from .waveform import Waveform

#: Steps integrated with backward Euler right after each breakpoint
#: (the standard damping of trapezoidal ringing at source corners).
BE_STEPS_AFTER_BREAKPOINT = 2

#: The step a run starts with, and restarts with after every breakpoint,
#: is the largest step ``dt`` divided by this: the grid error of a
#: PWM-driven cell sits at its input edges (SPICE's breakpoint step cut,
#: Nagel 1975).
FIRST_STEP_DIVISOR = 40

#: Each following step is this many times the last, up to ``dt``.
STEP_GROWTH = 1.5

#: Smallest allowed time step before the stepper gives up, seconds.
MIN_STEP = 1e-18

try:
    # The gufunc behind np.linalg.solve.  Binding it directly skips
    # ~15 us of per-call Python argument checking — measurable when the
    # Newton loop solves thousands of small stacked systems.  It returns
    # NaNs instead of raising on singular matrices; the Newton loop's
    # finite-ness check already handles that path.
    from numpy.linalg._umath_linalg import solve as _gufunc_solve
except ImportError:  # pragma: no cover - older/newer numpy layouts
    _gufunc_solve = None


def _batched_solve(G: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Stacked ``(P, S, S) @ x = (P, S)`` solve, minimal overhead; a
    ``(P, S, k)`` right-hand side solves ``k`` columns at once.

    Callers run under a suppressing ``np.errstate`` (singular systems
    surface as NaNs and are handled by the finite-ness check).
    """
    solve = np.linalg.solve if _gufunc_solve is None else _gufunc_solve
    if I.ndim == 3:
        return solve(G, I)
    return solve(G, I[:, :, None])[:, :, 0]


def _sparse_rows(G: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Sparse stacked solve with singular blocks returned as NaN rows,
    the dense gufunc's convention, so only those lanes fail."""
    try:
        return sparse_solve_batch(G, I)
    except np.linalg.LinAlgError:
        out = np.full_like(I, np.nan)
        for p in range(G.shape[0]):
            try:
                out[p] = sparse_solve(G[p], I[p])
            except np.linalg.LinAlgError:
                pass
        return out


def _structure_signature(circuit: Circuit) -> tuple:
    """What a batch must share (compiles the circuit): the node names,
    each element's type, name and branches, and the terminals of every
    element except MOSFETs and capacitors.  Those two are stamped
    through per-point tables, so weight patterns that wire a gate to the
    supply on one point and to ground on another batch together."""
    circuit.compile()
    return (tuple(circuit.node_names),) + tuple(
        (type(el).__name__, el.name, el._branch,
         None if isinstance(el, (Mosfet, Capacitor)) else el._idx)
        for el in circuit.flat_elements)


def _per_point(value, n: int, name: str) -> np.ndarray:
    """One value, or one value per point, as an ``(n,)`` float array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise AnalysisError(
            f"{name} needs one value or {n} values, got shape {arr.shape}")
    return arr.copy()


class _Scatter:
    """Per-point G and RHS scatter tables of one element kind.

    ``g_lin`` (flat ``S*S`` cells) and ``i_rows`` (RHS rows) are
    ``(P, E)`` tables, entry for entry in the elements' own stamping
    order, with signs per entry; ``-1`` marks an entry that point does
    not stamp (a ground terminal).  Entries no point stamps are dropped
    (``g_kept``/``i_kept`` index the survivors), so a single-wiring
    batch keeps exactly the elements' own pattern.  The rest are masked per
    point: cell or row 0 of the lane's own block with sign 0.0, whose
    ``+-0.0`` adds leave every cell's bits unchanged (no cell is ever
    -0.0, and the stamped values are finite: Newton clamps node steps to
    ``NEWTON_VLIMIT``).  :meth:`bind` gathers the tables for a run's
    lanes; :meth:`g` and :meth:`i` give flat 1-D scatter indices
    (``ufunc.at`` is several times slower on 2-D ones) and sign tables
    for a slice or index array of lanes.
    """

    def __init__(self, g_lin: np.ndarray, g_sign: np.ndarray,
                 i_rows: np.ndarray, i_sign: np.ndarray, size: int):
        self.g_kept, self._g_lin, self._g_sign = self._stack(g_lin, g_sign)
        self.i_kept, self._i_rows, self._i_sign = self._stack(i_rows, i_sign)
        self._block = size * size

    @staticmethod
    def _stack(index: np.ndarray, sign: np.ndarray):
        stamped = index >= 0
        kept = np.nonzero(stamped.any(axis=0))[0]
        return (kept, np.where(stamped, index, 0)[:, kept],
                np.where(stamped, sign, 0.0)[:, kept])

    def bind(self, circ: np.ndarray) -> None:
        n_lanes = circ.size
        self._lane_g = (self._g_lin[circ], self._g_sign[circ])
        self._lane_i = (self._i_rows[circ].T, self._i_sign[circ].T)
        self._g_off = np.arange(n_lanes)[:, None] * self._block
        self._cols = np.arange(n_lanes)[None, :]
        self._full_g = ((self._lane_g[0] + self._g_off).ravel(),
                        self._lane_g[1])
        self._full_i = ((self._lane_i[0] * n_lanes + self._cols).ravel(),
                        self._lane_i[1])

    def g(self, lanes) -> "tuple[np.ndarray, np.ndarray]":
        """Indices into a flat ``(B, S, S)`` stack and ``(B, E)`` signs."""
        if isinstance(lanes, slice):
            return self._full_g
        return ((self._lane_g[0][lanes] + self._g_off[:lanes.size]).ravel(),
                self._lane_g[1][lanes])

    def i(self, lanes) -> "tuple[np.ndarray, np.ndarray]":
        """Indices into a flat transposed ``(S, B)`` RHS and ``(F, B)``
        signs."""
        if isinstance(lanes, slice):
            return self._full_i
        b = lanes.size
        return ((self._lane_i[0][:, lanes] * b + self._cols[:, :b]).ravel(),
                self._lane_i[1][:, lanes])


class _BatchCapacitors:
    """Vectorised companion models for every capacitor in the batch.

    Values are ``(K, P)`` — one row per capacitor, one column per
    circuit — and so are the terminals: a weight bit may wire a gate to
    the supply on one point and to ground on another.  The companion
    state (``v_prev``/``i_prev``) is ``(K, L)``, one column per lane of
    the current run, and every lane carries its own step size and
    method, so conductances are ``factor * C / dt`` per lane.  Methods
    take ``lanes`` (a slice or an index array into the run's lanes)
    naming the rows they get.
    """

    def __init__(self, caps_by_point: List[List[Capacitor]], size: int):
        self.n = len(caps_by_point[0])
        if self.n == 0:
            return
        self.size = size
        # Per-point values, (K, P): parasitic caps scale with device
        # geometry, which Monte-Carlo batches perturb per point.
        self.c = np.array([[c.capacitance for c in point_caps]
                           for point_caps in caps_by_point]).T
        idx = np.array([[c._idx for c in point_caps]
                        for point_caps in caps_by_point], dtype=np.intp)
        # Padded-state gathers of both terminals, (2, K, P): ground
        # reads the zero column.
        self._ab = np.where(idx >= 0, idx, size).transpose(2, 1, 0)
        # Initial-voltage overrides, (K, P), NaN where none is set.
        self.ic = (np.array([[np.nan if c.ic is None else c.ic
                              for c in point_caps]
                             for point_caps in caps_by_point]).T
                   if any(c.ic is not None for point_caps in caps_by_point
                          for c in point_caps) else None)
        self._live = self.c > 0.0
        self._dead = not self._live.all()
        # G and RHS scatter patterns in element order (a then b rows;
        # for G the add_conductance sequence aa, bb, -ab, -ba), so cells
        # shared by several caps accumulate exactly as
        # Capacitor.stamp_reactive sums them.  A zero capacitor stamps
        # zeros, which leave every cell's bits unchanged.
        rows, cols = idx[:, :, [0, 1, 0, 1]], idx[:, :, [0, 1, 1, 0]]
        g_lin = np.where((rows >= 0) & (cols >= 0), rows * size + cols, -1)
        self._scatter = _Scatter(
            g_lin.reshape(len(idx), -1),
            np.array([1.0, 1.0, -1.0, -1.0] * self.n),
            idx.reshape(len(idx), -1),
            np.array([-1.0, 1.0] * self.n), size)
        self._g_cap = self._scatter.g_kept // 4
        self._i_cap = self._scatter.i_kept // 2

    def init_state(self, x_pad_cols: np.ndarray, circ: np.ndarray,
                   phi_pad: Optional[np.ndarray] = None) -> None:
        """Bind the run's lanes (``circ`` names each lane's circuit) and
        their start states, padded ``(L, S+1)``; ``phi_pad`` (padded
        ``(L, S+1, n)``) starts the sensitivity columns, if carried."""
        self._c_lanes = self.c[:, circ]
        if self._dead:
            self._live_lanes = self._live[:, circ]
        self._scatter.bind(circ)
        self._pad_off = np.arange(circ.size)[None, :] * (self.size + 1)
        self._lane_ab = self._ab[:, :, circ]
        self._full_ab = self._lane_ab + self._pad_off
        self.v_prev = self._voltages(x_pad_cols, slice(None))
        self.dv_prev = (None if phi_pad is None else
                        self._voltages(phi_pad, slice(None)))
        if self.ic is not None:
            ic = self.ic[:, circ]
            has_ic = np.isfinite(ic)
            self.v_prev[has_ic] = ic[has_ic]
            if phi_pad is not None:
                self.dv_prev[has_ic] = 0.0
        self.i_prev = np.zeros_like(self.v_prev)
        self.di_prev = (None if phi_pad is None else
                        np.zeros_like(self.dv_prev))

    def _voltages(self, x_pad: np.ndarray, lanes) -> np.ndarray:
        """Element voltages ``(K, B)`` from padded ``(B, S+1)`` states,
        or their sensitivities ``(K, B, n)`` from padded ``(B, S+1, n)``
        columns."""
        ab = (self._full_ab if isinstance(lanes, slice) else
              self._lane_ab[:, :, lanes] + self._pad_off[:, :lanes.size])
        if x_pad.ndim == 3:
            va, vb = x_pad.reshape(-1, x_pad.shape[2]).take(ab, axis=0)
        else:
            va, vb = x_pad.take(ab)
        return va - vb

    def geq(self, lanes, dt: np.ndarray, be: np.ndarray) -> np.ndarray:
        """Companion conductances ``(K, B)``: ``C/dt`` for backward
        Euler, ``2C/dt`` for trapezoidal, per lane (``2.0 - be`` is
        exactly 1.0 or 2.0)."""
        return (2.0 - be) * self._c_lanes[:, lanes] / dt

    def add_geq_stack(self, G_stack: np.ndarray, geq: np.ndarray,
                      lanes) -> None:
        """Companion conductances onto the stacked base, ``(B, S, S)``."""
        lin, sign = self._scatter.g(lanes)
        np.add.at(G_stack.reshape(-1), lin,
                  (geq.T.take(self._g_cap, axis=1) * sign).ravel())

    @staticmethod
    def _history(v_prev: np.ndarray, i_prev: np.ndarray, be: np.ndarray,
                 lanes) -> "tuple[np.ndarray, np.ndarray]":
        """``v_prev`` and the trapezoidal ``i_prev`` term (0 under BE;
        ``x - 0.0`` is exactly ``x``, so BE lanes match the term-free
        backward-Euler update) of the lanes, for the state ``(K, L)`` or
        its sensitivities ``(K, L, n)``."""
        i_prev = i_prev[:, lanes]
        if np.count_nonzero(be):
            mask = be if i_prev.ndim == 2 else be[:, None]
            i_prev = np.where(mask, 0.0, i_prev)
        return v_prev[:, lanes], i_prev

    def stamp_rhs(self, I_t: np.ndarray, geq: np.ndarray, be: np.ndarray,
                  lanes, R: Optional[np.ndarray] = None) -> None:
        """Equivalent currents into the transposed RHS ``(S, B)``, and
        their sensitivities (``-geq dv_prev - di_term``) into the
        sensitivity RHS ``R`` ``(S, B, n)`` if given."""
        v_prev, i_term = self._history(self.v_prev, self.i_prev, be, lanes)
        ieq = -geq * v_prev - i_term
        lin, sign = self._scatter.i(lanes)
        # add_current(a, b, ieq): I[a] -= ieq, I[b] += ieq.
        np.add.at(I_t.reshape(-1), lin,
                  (sign * ieq.take(self._i_cap, axis=0)).ravel())
        if R is not None:
            dv_prev, di_term = self._history(self.dv_prev, self.di_prev, be,
                                             lanes)
            dieq = -geq[:, :, None] * dv_prev - di_term
            n = R.shape[2]
            np.add.at(R.reshape(-1), (lin[:, None] * n + np.arange(n)).ravel(),
                      (sign[:, :, None]
                       * dieq.take(self._i_cap, axis=0)).ravel())

    def accept_step(self, x_pad_cols: np.ndarray, geq: np.ndarray,
                    be: np.ndarray, lanes,
                    phi_pad: Optional[np.ndarray] = None) -> None:
        """Advance the companion state to the accepted step's solution,
        and its sensitivities to ``phi_pad`` if carried."""
        for v_prev, i_prev, x_pad in ((self.v_prev, self.i_prev, x_pad_cols),
                                      (self.dv_prev, self.di_prev, phi_pad)):
            if x_pad is None:
                break
            v_new = self._voltages(x_pad, lanes)
            v_old, i_term = self._history(v_prev, i_prev, be, lanes)
            g = geq if x_pad.ndim == 2 else geq[:, :, None]
            i_new = g * (v_new - v_old) - i_term
            if self._dead:
                # A zero capacitor carries no current (+0.0, as its own
                # accept_step sets it).
                live = self._live_lanes[:, lanes]
                i_new = np.where(live if x_pad.ndim == 2
                                 else live[:, :, None], i_new, 0.0)
            i_prev[:, lanes] = i_new
            v_prev[:, lanes] = v_new


class _BatchInductors:
    """Vectorised companion models for every inductor in the batch.

    An inductor owns its branch row ``v_a - v_b - req * i = -req *
    i_prev - v_prev`` (trapezoidal, ``req = 2L/dt``; backward Euler
    drops ``v_prev`` and uses ``req = L/dt``).  Its ``+-1`` coupling
    entries are value-independent and live in the solver's fixed base;
    no other element touches its branch row or column, so the ``-req``
    diagonal and the history term are single adds.  Inductor terminals
    are part of the batch structure; values are per point, ``(K, P)``.
    Same interface as :class:`_BatchCapacitors`.
    """

    def __init__(self, inductors_by_point: List[List[Inductor]],
                 size: int):
        self.n = len(inductors_by_point[0])
        if self.n == 0:
            return
        first = inductors_by_point[0]
        self._br = np.array([el._branch[0] for el in first], dtype=np.intp)
        ab = np.array([el._idx for el in first], dtype=np.intp)
        self._a, self._b = np.where(ab >= 0, ab, size).T
        self.l = np.array([[el.inductance for el in point]
                           for point in inductors_by_point]).T
        self.ic = np.array([[np.nan if el.ic is None else el.ic
                             for el in point]
                            for point in inductors_by_point]).T

    def init_state(self, x_pad_cols: np.ndarray, circ: np.ndarray,
                   phi_pad: Optional[np.ndarray] = None) -> None:
        self._l_lanes = self.l[:, circ]
        self.i_prev = x_pad_cols.T[self._br]
        ic = self.ic[:, circ]
        has_ic = np.isfinite(ic)
        self.i_prev[has_ic] = ic[has_ic]
        self.v_prev = np.zeros_like(self.i_prev)
        if phi_pad is not None:
            self.di_prev = phi_pad.transpose(1, 0, 2)[self._br]
            self.di_prev[has_ic] = 0.0
            self.dv_prev = np.zeros_like(self.di_prev)

    def geq(self, lanes, dt: np.ndarray, be: np.ndarray) -> np.ndarray:
        """Companion resistances ``req`` ``(K, B)``."""
        return (2.0 - be) * self._l_lanes[:, lanes] / dt

    def add_geq_stack(self, G_stack: np.ndarray, req: np.ndarray,
                      lanes) -> None:
        # The diagonal cell holds 0.0 before: 0.0 - req is -req.
        G_stack[:, self._br, self._br] -= req.T

    def stamp_rhs(self, I_t: np.ndarray, req: np.ndarray, be: np.ndarray,
                  lanes, R: Optional[np.ndarray] = None) -> None:
        I_t[self._br] += -req * self.i_prev[:, lanes] - np.where(
            be, 0.0, self.v_prev[:, lanes])
        if R is not None:
            R[self._br] += (-req[:, :, None] * self.di_prev[:, lanes]
                            - np.where(be[:, None], 0.0,
                                       self.dv_prev[:, lanes]))

    def accept_step(self, x_pad_cols: np.ndarray, req: np.ndarray,
                    be: np.ndarray, lanes,
                    phi_pad: Optional[np.ndarray] = None) -> None:
        x_t = x_pad_cols.T
        self.i_prev[:, lanes] = x_t[self._br]
        self.v_prev[:, lanes] = x_t[self._a] - x_t[self._b]
        if phi_pad is not None:
            phi_t = phi_pad.transpose(1, 0, 2)
            self.di_prev[:, lanes] = phi_t[self._br]
            self.dv_prev[:, lanes] = phi_t[self._a] - phi_t[self._b]


class _BatchMosfets:
    """Vectorised MOSFET stamping over ``(B, M)`` devices.

    Device parameters, terminals and stamp patterns are per point and
    gathered per lane, so Monte-Carlo batches (perturbed geometry) and
    weight-pattern batches (a weight bit wires a gate to the supply or
    to ground) stamp exactly like supply sweeps.
    """

    def __init__(self, contexts: List[MnaContext]):
        groups = [ctx.mosfet_group for ctx in contexts]
        self.m = m = groups[0].n
        if m == 0:
            return
        self.size = size = contexts[0].size
        # Per-point device parameters sign, beta, vt, lam, n_sub, each
        # (P, M) and gathered per lane along axis 0, which keeps every
        # operand of the device equations contiguous.
        self.params = [np.stack([getattr(g, f) for g in groups])
                       for f in ("sign", "beta", "vt", "lam", "n_sub")]
        # Padded-state columns of drain, gate and source, (3, P, M).
        self._terms = np.stack([np.stack([g.d_gather, g.g_gather,
                                          g.s_gather]) for g in groups],
                               axis=1)
        # G entries in the _MosfetGroup.stamp order: per block, gm
        # (d,g)+ (d,s)- (s,g)- (s,s)+ then gds (d,d)+ (s,s)+ (d,s)-
        # (s,d)-, each block over all devices.  Values come from one
        # (B, 2M) [gm | gds + GMIN_DS] buffer through a source-column
        # table; +-1 factors are exact.
        d, gate, src = (np.stack([getattr(g, f) for g in groups])
                        for f in ("d", "g", "s"))            # (P, M)
        rows = np.concatenate([d, d, src, src, d, src, d, src], axis=1)
        cols = np.concatenate([gate, src, gate, src, d, src, src, d],
                              axis=1)
        # RHS: -ieq into every drain row, then +ieq into every source
        # row, as _MosfetGroup.stamp's two scatters.
        self._scatter = _Scatter(
            np.where((rows >= 0) & (cols >= 0), rows * size + cols, -1),
            np.repeat([1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0], m),
            np.concatenate([d, src], axis=1),
            np.repeat([-1.0, 1.0], m), size)
        kept = self._scatter.g_kept
        self._g_src = np.where(kept < 4 * m, kept % m, m + kept % m)
        self._i_src = self._scatter.i_kept % m
        #: per-batch-size scratch for the [gm | gt] buffer.
        self._buf_by_size: "dict[int, np.ndarray]" = {}

    def bind(self, circ: np.ndarray) -> None:
        """Gather the device parameters and tables of the run's lanes."""
        if not self.m:
            return
        self._lane_params = [p[circ] for p in self.params]
        self._scatter.bind(circ)
        self._pad_off = np.arange(circ.size)[:, None] * (self.size + 1)
        self._lane_terms = self._terms[:, circ]
        self._full_terms = self._lane_terms + self._pad_off

    def stamp(self, G_stack: np.ndarray, I_t: np.ndarray,
              x_pad_cols: np.ndarray, rows) -> None:
        """Accumulate linearised stamps for a batch of lanes.

        ``G_stack`` is ``(B, S, S)``, ``I_t`` the transposed RHS
        ``(S, B)``, ``x_pad_cols`` the padded states ``(B, S+1)``
        (last column zero for ground gathers) and ``rows`` the lanes
        (an index array or slice), which select device parameters and
        terminals.  All three arrays are C-contiguous.
        """
        m = self.m
        b = x_pad_cols.shape[0]
        if isinstance(rows, slice):
            # A full working set: the run's tables, no gathers.
            sign, beta, vt, lam, n_sub = self._lane_params
            terms = self._full_terms
        else:
            sign, beta, vt, lam, n_sub = [p[rows] for p in self._lane_params]
            terms = self._lane_terms[:, rows] + self._pad_off[:b]
        vd, vg, vs = x_pad_cols.take(terms)         # each (B, M)
        ids, gm, gds = ids_full_vec(vd, vg, vs, sign, beta, vt, lam, n_sub)
        ieq = ids - gm * (vg - vs) - gds * (vd - vs)
        gmgt = self._buf_by_size.get(b)
        if gmgt is None:
            gmgt = self._buf_by_size[b] = np.empty((b, 2 * m))
        gmgt[:, :m] = gm
        np.add(gds, GMIN_DS, out=gmgt[:, m:])
        g_lin, g_sign = self._scatter.g(rows)
        np.add.at(G_stack.reshape(-1), g_lin,
                  (gmgt.take(self._g_src, axis=1) * g_sign).ravel())
        i_lin, i_sign = self._scatter.i(rows)
        np.add.at(I_t.reshape(-1), i_lin,
                  (ieq.T.take(self._i_src, axis=0) * i_sign).ravel())


class _BatchSources:
    """Per-lane source stamps for the transposed RHS.

    Every voltage source owns its branch row, so its RHS cell is
    ``0.0 + value(t)`` (the static RHS is zero there); :meth:`values`
    gives those cells for any lanes and times, from each point's own
    ``value(t)``.  The stepper calls it once per step grid, not per
    step.  Current sources add into node rows, lane by lane, in element
    order (:meth:`stamp`).
    """

    def __init__(self, sources_by_point: List[List]):
        first = sources_by_point[0]
        self._by_point = sources_by_point
        self._vsrc = [k for k, el in enumerate(first)
                      if isinstance(el, VoltageSource)]
        self._isrc = [k for k, el in enumerate(first)
                      if not isinstance(el, VoltageSource)]
        #: Branch rows of the voltage sources, in element order.
        self.rows = np.array([first[k]._branch[0] for k in self._vsrc],
                             dtype=np.intp)

    def values(self, circ: np.ndarray, t: np.ndarray) -> np.ndarray:
        """RHS cells ``(Kv, B)`` of the voltage sources for lanes of
        circuits ``circ`` at times ``t``."""
        lanes = list(zip(circ.tolist(), t.tolist()))
        return 0.0 + np.array([[self._by_point[p][k].value(tb)
                                for p, tb in lanes] for k in self._vsrc]
                              ).reshape(len(self._vsrc), len(lanes))

    def stamp(self, I_t: np.ndarray, values: np.ndarray, t: np.ndarray,
              circ: np.ndarray) -> None:
        """Source stamps into the transposed RHS ``(S, B)`` of lanes of
        circuits ``circ`` at times ``t``; ``values`` from
        :meth:`values`."""
        I_t[self.rows] = values
        for k in self._isrc:
            a, b = self._by_point[0][k]._idx
            for col, (p, tb) in enumerate(zip(circ.tolist(), t.tolist())):
                el = self._by_point[p][k]
                i = el._fn(tb) if hasattr(el, "_fn") else el.current
                if a >= 0:
                    I_t[a, col] -= i
                if b >= 0:
                    I_t[b, col] += i


class _StepPlan:
    """The step grid of one lane from a given stepping state.

    Steps end on the lane's breakpoints (``targets``, the stop time
    last).  The run's start and every breakpoint restart the step at the
    bottom rung of the ladder (:func:`_rungs`, ``dt/FIRST_STEP_DIVISOR``);
    each step climbs one rung, by ``STEP_GROWTH``, up to ``dt``, the
    largest step.  The first ``BE_STEPS_AFTER_BREAKPOINT`` steps after
    each restart are backward Euler.  Per step: size ``h``, method
    ``be``, end time ``t[k + 1]``, ``kind`` (``2 * rung + be`` for a
    step of its rung's size, -1 for one cut short to land on a
    breakpoint), and the target index, BE countdown and rung it started
    from (to re-plan a lane from its accepted time after a halved step).
    The grid depends only on timing, so a solver plans once per circuit
    and timing, with the voltage-source values ``v`` on the grid.
    """

    def __init__(self, targets: list, dt: float, stop: float,
                 force_be: bool, t: float, pos: int, countdown: int,
                 rung: int):
        self.targets, self.dt, self.stop = targets, dt, stop
        self.force_be, self.eps = force_be, dt * 1e-9
        self.sizes = [dt * f for f in _rungs()]
        times, h, be, self.pos, self.countdown = [t], [], [], [], []
        self.kind: List[int] = []
        self.rung: List[int] = []
        while t < stop:
            size = self.sizes[rung]
            step = min(size, targets[pos] - t)
            h.append(step)
            be.append(force_be or countdown > 0)
            self.kind.append(2 * rung + be[-1] if step == size else -1)
            self.pos.append(pos)
            self.countdown.append(countdown)
            self.rung.append(rung)
            t = t + step
            times.append(t)
            pos, countdown, rung = self.after_step(t, pos, countdown, rung)
        self.t, self.h = np.array(times), np.array(h)
        self.be = np.array(be, dtype=bool)
        self.n = len(h)

    def after_step(self, t: float, pos: int, countdown: int,
                   rung: int) -> "tuple[int, int, int]":
        """Target index, countdown and rung after a step from ``pos``
        on ``rung`` that ended at ``t``: the next rung up, unless the
        step sits on its target (within ``eps``), which restarts the
        countdown and the ladder and moves the target past every
        breakpoint within ``eps``."""
        countdown -= 1
        rung = min(rung + 1, len(self.sizes) - 1)
        if self.targets[pos] - t <= self.eps:
            countdown, rung = BE_STEPS_AFTER_BREAKPOINT, 0
            pos = _skip_targets(self.targets, pos, t + self.eps)
        return pos, countdown, rung


def _rungs() -> List[float]:
    """The step ladder as fractions of ``dt``: ``1/FIRST_STEP_DIVISOR``
    growing by ``STEP_GROWTH`` per step, then 1."""
    rungs = [1.0 / FIRST_STEP_DIVISOR]
    while rungs[-1] * STEP_GROWTH < 1.0:
        rungs.append(rungs[-1] * STEP_GROWTH)
    return rungs + [1.0] if rungs[-1] < 1.0 else rungs


def _common_kind(kinds: np.ndarray) -> int:
    """The step kind every lane takes, -1 when they differ."""
    first = int(kinds[0])
    # count_nonzero: the cheapest all() on the small masks here.
    return (first if np.count_nonzero(kinds == first) == kinds.size
            else -1)


def _skip_targets(targets: list, pos: int, t: float) -> int:
    """First target index at or after ``pos`` lying beyond ``t``."""
    while pos < len(targets) and targets[pos] <= t:
        pos += 1
    return pos


class _LaneGrid:
    """A run's step grid, lane by lane: step ``k`` ends at ``t[k + 1]``
    with size ``h[k]``, method ``be[k]``, kind ``kind[k]`` (see
    :class:`_StepPlan`) and source values ``v[k]``; a lane takes
    ``n_steps`` steps and then repeats its stop time.  ``plans[lane]``
    is ``(plan, k0)``: the lane follows ``plan`` from step ``k0``."""

    def __init__(self, plans: List[_StepPlan], n_sources: int):
        n_lanes = len(plans)
        n = max(plan.n for plan in plans)
        self.t = np.empty((n + 1, n_lanes))
        self.h = np.zeros((n, n_lanes))
        self.be = np.zeros((n, n_lanes), dtype=bool)
        self.kind = np.full((n, n_lanes), -1, dtype=np.intp)
        self.v = np.zeros((n, n_sources, n_lanes))
        self.n_steps = np.zeros(n_lanes, dtype=np.intp)
        self.plans: "List[tuple]" = [None] * n_lanes
        by_plan: "Dict[int, List[int]]" = {}
        for lane, plan in enumerate(plans):
            by_plan.setdefault(id(plan), []).append(lane)
        for lanes in by_plan.values():
            self.put(lanes, 0, plans[lanes[0]])

    def put(self, lanes: List[int], k0: int, plan: _StepPlan) -> None:
        """``lanes`` follow ``plan`` from step ``k0`` on."""
        k1 = k0 + plan.n
        grow = k1 + 1 - len(self.t)
        if grow > 0:
            self.t = np.concatenate([self.t,
                                     np.repeat(self.t[-1:], grow, 0)])
            self.h, self.be, self.kind, self.v = (
                np.concatenate([a, np.zeros((grow,) + a.shape[1:], a.dtype)])
                for a in (self.h, self.be, self.kind, self.v))
        self.t[k0:k1 + 1, lanes] = plan.t[:, None]
        self.t[k1 + 1:, lanes] = plan.t[-1]
        self.h[k0:k1, lanes] = plan.h[:, None]
        self.h[k1:, lanes] = 0.0
        self.be[k0:k1, lanes] = plan.be[:, None]
        self.kind[k0:k1, lanes] = np.asarray(plan.kind)[:, None]
        self.v[k0:k1, :, lanes] = plan.v[:, :, None]
        self.n_steps[lanes] = k1
        for lane in lanes:
            self.plans[lane] = (plan, k0)


class TransientResult:
    """Sampled solution of one transient run."""

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


class BatchTransientResult:
    """Ragged lock-step solution, indexed by step.

    ``times`` is ``(N+1, L)`` and ``X`` is ``(N+1, L, S)``; lane ``l``
    took ``steps[l]`` steps, and its rows past that repeat its final
    state.  ``halvings[l]`` counts the lane's step-size halvings.
    ``phi`` ``(L, S, n)`` holds each lane's final sensitivity columns
    on a run that carries them (``None`` otherwise).
    """

    def __init__(self, circuits: List[Circuit], times: np.ndarray,
                 X: np.ndarray, steps: np.ndarray, halvings: np.ndarray,
                 phi: Optional[np.ndarray] = None):
        self.circuits = circuits
        self.times = times
        self.X = X
        self.steps = steps
        self.halvings = halvings
        self.phi = phi

    @property
    def n_points(self) -> int:
        return self.X.shape[1]

    @property
    def t(self) -> np.ndarray:
        """The time grid shared by every lane (same-timing batches)."""
        if not (self.times == self.times[:, :1]).all():
            raise AnalysisError(
                "batch lanes sit on different time grids; use point(p)")
        return self.times[:, 0]

    @property
    def final_x(self) -> np.ndarray:
        """End states, shape ``(L, S)``."""
        return self.X[-1].copy()

    def node(self, name: str) -> np.ndarray:
        """Node voltages by step for every lane, shape ``(N+1, L)``."""
        idx = self.circuits[0].node_index(name)
        if idx < 0:
            return np.zeros(self.X.shape[:2])
        return self.X[:, :, idx]

    def point(self, p: int) -> TransientResult:
        """One lane's trajectory as an ordinary :class:`TransientResult`."""
        n = int(self.steps[p]) + 1
        return TransientResult(self.circuits[p], self.times[:n, p].copy(),
                               self.X[:n, p, :].copy(),
                               int(self.halvings[p]))


class BatchTransientSolver:
    """Ragged lock-step transient integration of same-structure circuits.

    All circuits must share their structure (node names; element names,
    types and branches; the node bindings of everything but MOSFETs and
    capacitors); element values, source timing and MOSFET/capacitor
    terminals — rails, amplitudes, duty cycles, frequencies, device
    geometry, weight wirings — are free to differ per point.  Every
    element kind integrates: capacitors and inductors as vectorised
    companions, MOSFETs through the batched device kernel, other
    nonlinear elements (switches) through their own per-lane stamps.
    """

    def __init__(self, circuits: Sequence[Circuit], *,
                 solver: str = "auto"):
        self.circuits = list(circuits)
        if not self.circuits:
            raise AnalysisError("need at least one circuit to batch")
        self.solver = check_solver(solver)
        #: Concrete linear-solve backend, decided lazily from the first
        #: assembled stack (see :mod:`repro.circuit.sparse`).
        self._backend: Optional[str] = None
        self.contexts = [MnaContext(c, solver=solver)
                         for c in self.circuits]
        ctx0 = self.contexts[0]
        self.size = ctx0.size
        self.n_nodes = ctx0.n_nodes
        self.n_points = len(self.circuits)

        signature = _structure_signature(ctx0.circuit)
        for ctx in self.contexts[1:]:
            if _structure_signature(ctx.circuit) != signature:
                raise AnalysisError(
                    "batched circuits must share element structure "
                    "(same nodes, same elements, and the same terminals "
                    "for everything but MOSFETs and capacitors); "
                    "rebuild the family from one parametrised builder")

        # Voltage-source and inductor coupling stamps (branch KCL +
        # voltage rows) are value-independent exact +/-1 entries in
        # cells no other element touches: fold them into the per-point
        # static base.
        G_coupling = np.zeros((self.size, self.size))
        sys_view = ctx0.sys_view(G_coupling, np.zeros(self.size))
        for el in ctx0.circuit.flat_elements:
            if isinstance(el, (VoltageSource, Inductor)):
                a, b = el._idx
                br = el._branch[0]
                sys_view.stamp_branch_kcl(a, b, br)
                sys_view.stamp_branch_voltage_row(br, a, b)
        self._G_fixed = np.array([ctx._G_static for ctx in self.contexts]) \
            + G_coupling
        self._I_static = np.array([ctx._I_static for ctx in self.contexts])
        names = [el.name for el in ctx0.circuit.by_category[SOURCE]]
        by_name = [{el.name: el for el in ctx.circuit.by_category[SOURCE]}
                   for ctx in self.contexts]
        self._sources = _BatchSources([[bn[n] for n in names]
                                       for bn in by_name])
        reactive = [ctx.reactive_elements for ctx in self.contexts]
        self._caps = _BatchCapacitors(
            [[el for el in r if isinstance(el, Capacitor)] for r in reactive],
            self.size)
        self._inductors = _BatchInductors(
            [[el for el in r if isinstance(el, Inductor)] for r in reactive],
            self.size)
        #: Companion groups with elements, in RHS stamping order.
        self._reactive = [g for g in (self._caps, self._inductors) if g.n]
        self._mosfets = _BatchMosfets(self.contexts)
        #: Per point: the non-MOSFET nonlinear elements, stamped lane by
        #: lane after the MOSFETs.
        self._switches = [ctx.other_nonlinear for ctx in self.contexts]
        self._nonlinear = self._mosfets.m > 0 or bool(self._switches[0])
        self._plans: "dict[tuple, _StepPlan]" = {}
        # Per-column Newton tolerance: abstol on node voltages, itol on
        # branch currents.
        self._tol = np.full(self.size, NEWTON_ITOL)
        self._tol[:self.n_nodes] = NEWTON_ABSTOL

    # -- assembly ----------------------------------------------------------

    def _plan(self, p: int, tstart: float, tstop: float, dt: float,
              force_be: bool) -> _StepPlan:
        """Circuit ``p``'s step grid over ``[tstart, tstop]``, cached
        per timing."""
        key = (p, tstart, tstop, dt, force_be)
        plan = self._plans.get(key)
        if plan is None:
            targets = [b for b in self.contexts[p].breakpoints(tstart, tstop)
                       if tstart < b < tstop] + [tstop]
            eps = dt * 1e-9
            plan = self._plans[key] = self._with_sources(p, _StepPlan(
                targets, dt, tstop - eps, force_be, tstart,
                _skip_targets(targets, 0, tstart + eps),
                BE_STEPS_AFTER_BREAKPOINT, 0))
        return plan

    def _with_sources(self, p: int, plan: _StepPlan) -> _StepPlan:
        """``plan`` with circuit ``p``'s source values on its grid."""
        plan.v = self._sources.values(np.full(plan.n, p), plan.t[1:]).T
        return plan

    def _stack(self, kind: int) -> "tuple[np.ndarray, list]":
        """The run's static + companion matrices ``(L, S, S)`` and the
        companion values for a step of ``kind`` (see :class:`_StepPlan`)
        on every lane, assembled on first use."""
        stack = self._stacks.get(kind)
        if stack is None:
            rung, be = divmod(kind, 2)
            G = self._G_fixed[self._circ]
            h = self._dt_nominal * self._ladder[rung]
            be_lanes = np.full(self._circ.size, bool(be))
            comp = [group.geq(slice(None), h, be_lanes)
                    for group in self._reactive]
            for group, g in zip(self._reactive, comp):
                group.add_geq_stack(G, g, slice(None))
            stack = self._stacks[kind] = (G, comp)
        return stack

    def _step_matrices(self, lanes, kinds: np.ndarray, h: np.ndarray,
                       be: np.ndarray) -> "tuple[np.ndarray, list]":
        """Static + companion matrices ``(B, S, S)`` and companion values
        for one step of the lanes, whose step kinds are ``kinds`` (see
        :class:`_StepPlan`), sizes ``h`` and methods ``be``.

        A step every lane takes at one rung's size reuses the run's
        stack for its kind; otherwise each lane at a rung's size gathers
        its kind's matrices, and breakpoint-shortened or halved steps
        (kind -1) assemble their own.  Callers copy before stamping.
        """
        kind = _common_kind(kinds)
        if kind >= 0:
            G, comp = self._stack(kind)
            if isinstance(lanes, slice):
                return G, comp
            return G[lanes], [g[:, lanes] for g in comp]
        comp = [group.geq(lanes, h, be) for group in self._reactive]
        ids = self._lane_ids[lanes]
        G = np.empty((ids.size, self.size, self.size))
        for k in np.unique(kinds[kinds >= 0]).tolist():
            sel = kinds == k
            G[sel] = self._stack(k)[0][ids[sel]]
        off = kinds < 0
        if off.any():
            sub = self._G_fixed[self._circ[ids[off]]]
            for group, g in zip(self._reactive, comp):
                group.add_geq_stack(sub, g[:, off], ids[off])
            G[off] = sub
        return G, comp

    def _stamp_switches(self, G: np.ndarray, I_t: np.ndarray,
                        x: np.ndarray, t: np.ndarray, rows) -> None:
        """Each lane's non-MOSFET nonlinear stamps, element by element
        into its own block (``G[j]``, ``I_t[:, j]``)."""
        view = self.contexts[0].sys_view(G[0], I_t[:, 0])
        circ = self._circ[rows].tolist()
        for j, (p, tj) in enumerate(zip(circ, t.tolist())):
            view.G, view.I = G[j], I_t[:, j]
            for el in self._switches[p]:
                el.stamp_nonlinear(view, x[j], tj)

    # -- Newton -----------------------------------------------------------

    @telemetry.traced(
        "mna.newton",
        tags=lambda self, x0, *_, **__: {
            "analysis": "batch-transient", "points": x0.shape[0],
            "size": self.size})
    def _solve_newton(self, x0: np.ndarray, t: np.ndarray,
                      G_base: np.ndarray, be: np.ndarray, comp: list,
                      src: np.ndarray, lanes) -> "tuple":
        """Damped Newton at one step, vectorised over lanes.

        ``t``, the matrices and companion values of
        :meth:`_step_matrices` (``G_base`` and ``comp``, one ``(K, B)``
        array per companion group), ``be`` (backward Euler, else
        trapezoidal) and the source values ``src`` ``(Kv, B)`` are per
        lane.
        Updates, clamping and the convergence test (the ``NEWTON_*``
        settings) apply per lane, and a converged lane leaves the
        working set while the rest keep iterating; the block-diagonal
        stack keeps every lane's iterates independent of the others.
        On a run that carries sensitivities, every pass also solves
        their columns (right-hand side: the companion histories'
        sensitivities) with the same matrices, and a lane keeps the
        columns of its last pass.  Returns the states,
        the sensitivities (``None`` when not carried) and a mask of
        lanes that failed (non-finite solution or no convergence in
        ``NEWTON_MAX_ITER``), ``None`` when none did.
        """
        rt = telemetry.active()
        # (S, B), C-contiguous: the stamps scatter through flat indices.
        I_t_base = (self._I_t_static.copy() if isinstance(lanes, slice)
                    else self._I_t_static.take(lanes, axis=1))
        n_lanes = x0.shape[0]
        sens = self._n_sens
        # The sensitivity columns' right-hand side, (S, B, n) like I_t.
        R = np.zeros((self.size, n_lanes, sens)) if sens else None
        # Assembly order: sources, then reactive companions.
        self._sources.stamp(I_t_base, src, t, self._circ[lanes])
        for group, g in zip(self._reactive, comp):
            group.stamp_rhs(I_t_base, g, be, lanes, R)
        if sens:
            # (B, S, n): the columns after the state's in each solve.
            R_base = R.transpose(1, 0, 2)
        phi = np.empty_like(R_base) if sens else None

        x = x0.copy()                                # (B, S)
        n = self.n_nodes
        tol = self._tol
        failed = None                # mask of failed lanes, once any fail
        # Positions of lanes still iterating.  The stacked system is
        # block-diagonal, so dropping a converged lane's rows neither
        # changes the others' iterates nor its own frozen solution.
        work = np.arange(n_lanes)
        lane_iterations = 0

        for iteration in range(1, NEWTON_MAX_ITER + 1):
            full = work.size == n_lanes
            lane_iterations += work.size
            # Fancy indexing already copies, so subsets skip the
            # explicit copy (and a full slice-selected base is a view).
            G = G_base.copy() if full else G_base[work]
            I_t = I_t_base.copy() if full else I_t_base.take(work, axis=1)
            x_work = x if full else x[work]
            if self._nonlinear:
                rows = lanes if full else self._lane_ids[lanes][work]
                if self._mosfets.m:
                    xpad = self._xpad_cols[:work.size]
                    xpad[:, :-1] = x_work
                    self._mosfets.stamp(G, I_t, xpad, rows)
                if self._switches[0]:
                    self._stamp_switches(G, I_t, x_work,
                                         t if full else t[work], rows)
            if self._backend is None:
                self._backend = choose_backend(
                    self.size, matrix_fill(G[0]), self.solver)
                if rt is not None:
                    rt.count("repro_mna_backend_decisions_total",
                             solver=self.solver, backend=self._backend)
            rhs = I_t.T
            if sens:
                rhs = np.concatenate(
                    (rhs[:, :, None], R_base if full else R_base[work]),
                    axis=2)
            if self._backend == "sparse":
                x_new = _sparse_rows(G, rhs)
            else:
                x_new = _batched_solve(G, rhs)
            if sens:
                x_new, phi_new = x_new[:, :, 0].copy(), x_new[:, :, 1:]
            finite = np.isfinite(x_new)
            if np.count_nonzero(finite) != finite.size:
                # Diverged or singular (the gufunc signals singular
                # matrices with NaNs): those lanes fail this attempt.
                finite = finite.all(axis=1)
                if failed is None:
                    failed = np.zeros(n_lanes, dtype=bool)
                failed[work[~finite]] = True
                work, x_new = work[finite], x_new[finite]
                x_work = x_work[finite]
                if sens:
                    phi_new = phi_new[finite]
                if work.size == 0:
                    break
                full = False
            if sens:
                phi[work] = phi_new
            if not self._nonlinear:
                if full:
                    x = x_new
                else:
                    x[work] = x_new
                work = work[:0]
                break
            dx = x_new - x_work
            abs_dx = np.abs(dx)
            # One fused test: abstol on node voltages, itol on branch
            # currents, reltol on both.
            conv = (abs_dx <= tol + NEWTON_RELTOL * np.abs(x_new)
                    ).all(axis=1)
            if abs_dx[:, :n].max() > NEWTON_VLIMIT:
                clamped = (abs_dx[:, :n] > NEWTON_VLIMIT).any(axis=1)
                rows = work[clamped]
                x[rows, :n] += np.clip(dx[clamped, :n], -NEWTON_VLIMIT,
                                       NEWTON_VLIMIT)
                x[rows, n:] += dx[clamped, n:]
                stepped = ~clamped
                x[work[stepped]] = x_new[stepped]
                conv &= stepped
            elif full:
                x = x_new
            else:
                x[work] = x_new
            if conv.all():
                work = work[:0]
                break
            work = work[~conv]
        if work.size:
            if failed is None:
                failed = np.zeros(n_lanes, dtype=bool)
            failed[work] = True
        if rt is not None:
            rt.count("repro_mna_lane_iterations_total", lane_iterations)
            if failed is None or not failed.all():
                rt.count("repro_mna_newton_solves_total")
                rt.count("repro_mna_newton_iterations_total", iteration,
                         backend=self._backend or "dense")
            if failed is not None:
                rt.count("repro_mna_convergence_failures_total",
                         int(failed.sum()), analysis="batch-transient")
        return x, phi, failed

    # -- integration -------------------------------------------------------

    def run(self, tstop, dt, *, tstart: float = 0.0,
            method: str = "trap", x0: Optional[np.ndarray] = None,
            max_retries: int = 10,
            points: Optional[Sequence[int]] = None,
            sensitivity: Optional[np.ndarray] = None
            ) -> BatchTransientResult:
        """Integrate every lane from ``tstart`` to its ``tstop``.

        ``tstop`` and ``dt`` take one value or one per lane.  ``points``
        names the circuit each lane integrates (default: one lane per
        circuit, in order; a circuit may back several lanes).  ``x0`` is
        the stacked initial state ``(L, S)``; ``None`` solves each
        lane's DC operating point at ``tstart`` first.  ``dt`` is each
        lane's largest step: its first step, and its first after every
        source breakpoint, is ``dt/FIRST_STEP_DIVISOR``, and each next
        one is ``STEP_GROWTH`` times longer, up to ``dt`` (see
        :class:`_StepPlan`).  The first ``BE_STEPS_AFTER_BREAKPOINT``
        steps, and as many after every source breakpoint, are backward
        Euler (``method="be"``: all of them); a lane whose Newton solve
        fails halves its step and retries, up to ``max_retries`` times
        per step, then continues its ladder from the accepted time.

        ``sensitivity`` (unknown indices) makes the run carry the
        columns ``phi = dx(t)/dx(tstart)[:, sensitivity]`` from unit
        columns, through every step and halved retry;
        ``result.phi`` holds each lane's final ``(S, n)`` columns.
        Without it nothing extra is solved.
        """
        circ = (np.arange(self.n_points) if points is None
                else np.asarray(points, dtype=np.intp))
        n_lanes = circ.size
        tstop = _per_point(tstop, n_lanes, "tstop")
        dt = _per_point(dt, n_lanes, "dt")
        if np.any(tstop <= tstart):
            raise AnalysisError(
                f"tstop ({tstop.min()}) must exceed tstart ({tstart})")
        if np.any(dt <= 0):
            raise AnalysisError("dt must be positive")
        if method not in ("trap", "be"):
            raise AnalysisError(f"unknown integration method {method!r}")

        if x0 is not None:
            x = np.asarray(x0, dtype=float).copy()
            if x.shape != (n_lanes, self.size):
                raise AnalysisError(
                    f"x0 must be ({n_lanes}, {self.size}), got {x.shape}")
        else:
            x = np.stack([
                operating_point(self.circuits[p], t=tstart,
                                ctx=self.contexts[p]).x
                for p in circ.tolist()])

        # One errstate frame for the whole run: the direct solve gufunc
        # flags singular systems via NaNs, which the Newton loop checks,
        # and masked pulse branches may divide by zero.
        errstate = np.errstate(invalid="ignore", divide="ignore",
                               over="ignore")
        with errstate, telemetry.span("mna.transient.batch",
                                      points=n_lanes, size=self.size):
            result = self._integrate(circ, tstart, tstop, dt, method, x,
                                     max_retries, sensitivity)
        rt = telemetry.active()
        if rt is not None:
            rt.count("repro_mna_steps_total", int(result.steps.sum()))
            rt.count("repro_mna_step_halvings_total",
                     int(result.halvings.sum()))
        return result

    def _integrate(self, circ, tstart, tstop, dt, method, x,
                   max_retries, sensitivity) -> BatchTransientResult:
        n_lanes = circ.size
        self._circ = circ
        self._lane_ids = lane_ids = np.arange(n_lanes)
        self._dt_nominal = dt
        self._I_t_static = self._I_static[circ].T.copy()
        # Padded states (last column zero for ground gathers), shared by
        # the MOSFET stamps and the companion updates.
        xpad = self._xpad_cols = np.zeros((n_lanes, self.size + 1))
        xpad[:, :-1] = x
        phi = phipad = None
        self._n_sens = 0 if sensitivity is None else len(sensitivity)
        if self._n_sens:
            # Unit columns at the sensitivity unknowns, padded like xpad.
            phipad = self._phipad = np.zeros((n_lanes, self.size + 1,
                                              self._n_sens))
            phipad[:, sensitivity, np.arange(self._n_sens)] = 1.0
            phi = phipad[:, :-1].copy()
        reactive = self._reactive
        for group in reactive:
            group.init_state(xpad, circ, phipad)
        self._mosfets.bind(circ)
        # The run's matrices and companions per step kind (ladder rung
        # and integration method), assembled on first use.
        self._stacks: "Dict[int, tuple]" = {}
        self._ladder = _rungs()

        # Every lane's step grid, planned up front (and again for a lane
        # after a halved step).
        force_be = method == "be"
        grid = _LaneGrid([self._plan(p, tstart, t1, h, force_be)
                          for p, t1, h in zip(circ.tolist(), tstop.tolist(),
                                              dt.tolist())],
                         self._sources.rows.size)
        halvings = np.zeros(n_lanes, dtype=int)
        states: List[np.ndarray] = [x.copy()]

        act = lane_ids[grid.n_steps > 0]
        k = 0
        # A step at or before which no lane of ``act`` finishes (0:
        # look again after this step).
        k_done = 0
        while act.size:
            # Lanes still stepping; a full working set indexes by slice
            # (views, no gathers).
            ix = slice(None) if act.size == n_lanes else act
            h, be, t_new = grid.h[k, ix], grid.be[k, ix], grid.t[k + 1, ix]
            G_base, comp = self._step_matrices(ix, grid.kind[k, ix], h, be)
            x_acc, phi_acc, failed = self._solve_newton(
                x[ix], t_new, G_base, be, comp, grid.v[k][:, ix], ix)
            if failed is not None:
                # Newton failures halve only the failing lanes' steps
                # and retry them with backward Euler; those lanes then
                # leave their plan and get a new one from there.
                h, be, t_new = h.copy(), be.copy(), t_new.copy()
                comp = [g.copy() for g in comp]
                t_act = grid.t[k][ix]
                halved = pending = np.flatnonzero(failed)
                attempts = 1
                while pending.size:
                    rows = act[pending]
                    h[pending] *= 0.5
                    be[pending] = True
                    halvings[rows] += 1
                    if (attempts == max_retries
                            or (h[pending] < MIN_STEP).any()):
                        raise ConvergenceError(
                            "transient step failed even at minimum step "
                            "size", analysis="batch-transient",
                            time=float(t_act[pending[0]]))
                    t_new[pending] = t_act[pending] + h[pending]
                    G_pend, comp_pend = self._step_matrices(
                        rows, np.full(pending.size, -1), h[pending],
                        be[pending])
                    for g, g_pend in zip(comp, comp_pend):
                        g[:, pending] = g_pend
                    x_new, phi_new, failed = self._solve_newton(
                        x[rows], t_new[pending], G_pend, be[pending],
                        comp_pend,
                        self._sources.values(circ[rows], t_new[pending]),
                        rows)
                    if failed is None:
                        failed = np.zeros(pending.size, dtype=bool)
                    x_acc[pending[~failed]] = x_new[~failed]
                    if phi_new is not None:
                        phi_acc[pending[~failed]] = phi_new[~failed]
                    pending = pending[failed]
                    attempts += 1
                for lane, t_lane in zip(act[halved].tolist(),
                                        t_new[halved].tolist()):
                    plan, k0 = grid.plans[lane]
                    grid.put([lane], k + 1, self._with_sources(
                        circ[lane], _StepPlan(
                            plan.targets, plan.dt, plan.stop,
                            plan.force_be, t_lane, *plan.after_step(
                                t_lane, plan.pos[k - k0],
                                plan.countdown[k - k0], plan.rung[k - k0]))))
                k_done = 0

            xpad = self._xpad_cols[:x_acc.shape[0]]
            xpad[:, :-1] = x_acc
            if phi is not None:
                phipad = self._phipad[:x_acc.shape[0]]
                phipad[:, :-1] = phi_acc
                phi[ix] = phi_acc
            for group, g in zip(reactive, comp):
                group.accept_step(xpad, g, be, ix, phipad)
            # Every stored state is a fresh array that nothing writes
            # later: a full working set's Newton result as it is, else a
            # copy of the last state with the stepping lanes updated.
            if act.size == n_lanes:
                x = x_acc
            else:
                x = x.copy()
                x[ix] = x_acc
            states.append(x)
            k += 1
            if k >= k_done:
                act = act[grid.n_steps[act] > k]
                k_done = grid.n_steps[act].min() if act.size else 0

        # Finished lanes repeat their stop time.
        return BatchTransientResult([self.circuits[p] for p in circ.tolist()],
                                    grid.t[:len(states)], np.array(states),
                                    grid.n_steps, halvings, phi)


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


def _observed(circuit: Circuit, observe: Optional[Sequence[str]]
              ) -> np.ndarray:
    """Indices of the shooting nodes: ``observe``, else the nodes that
    carry explicit capacitors (the designed slow nodes)."""
    names = list(observe or ())
    if not names:
        for el in circuit.elements:
            if isinstance(el, Capacitor):
                for node in el.node_names:
                    if circuit.node_index(node) >= 0 and node not in names:
                        names.append(node)
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


class BatchPssResult:
    """Periodic steady states of a circuit batch.

    Every reduction mirrors :class:`PssResult`, one value per point;
    :meth:`point` gives one point's :class:`PssResult`.
    Waves are stored per point (``(t, X, halvings)``): points differ in
    period and step count, and one point's step halvings refine only its
    own time grid.
    """

    def __init__(self, circuits: List[Circuit], periods: np.ndarray,
                 waves: "List[tuple]", iterations: np.ndarray,
                 residuals: np.ndarray):
        self.circuits = circuits
        self.periods = periods          # (P,)
        self._waves = waves             # per point: (t, X, halvings)
        self.iterations = iterations    # (P,)
        self.residuals = residuals      # (P,)

    @property
    def n_points(self) -> int:
        return len(self._waves)

    def _reduce(self, node: str, reduction: str) -> np.ndarray:
        out = np.zeros(self.n_points)
        for p, (t, X, _) in enumerate(self._waves):
            idx = self.circuits[p].node_index(node)
            if idx >= 0:
                out[p] = getattr(Waveform(t, X[:, idx]), reduction)()
        return out

    def averages(self, node: str) -> np.ndarray:
        """Period-average node voltage per point, shape ``(P,)``."""
        return self._reduce(node, "average")

    def point(self, p: int) -> PssResult:
        t, X, halvings = self._waves[p]
        waves = TransientResult(self.circuits[p], t, X, halvings)
        return PssResult(self.circuits[p], float(self.periods[p]), waves,
                         int(self.iterations[p]),
                         float(self.residuals[p]))


def _note_batch_pss(rt, span, result: BatchPssResult) -> None:
    """Counters and the iterations tag of one finished batched solve."""
    span.set_tag("iterations", int(result.iterations.max()))
    rt.count("repro_pss_solves_total", result.n_points)
    rt.count("repro_pss_iterations_total", int(result.iterations.sum()))


@telemetry.traced("pss.shooting_batch",
                  tags=lambda circuits, *_, **__: {"points": len(circuits)},
                  done=_note_batch_pss, fails=_PSS_FAILURES)
def shooting_batch(circuits: Sequence[Circuit], period, *,
                   steps_per_period=200,
                   observe: Optional[Sequence[str]] = None,
                   x0: Optional[Sequence[np.ndarray]] = None,
                   max_iterations: int = 15, tol: float = 1e-4,
                   method: str = "trap",
                   update_limit: float = 2.0,
                   solver: str = "auto") -> BatchPssResult:
    """Newton-shooting PSS for a whole batch of sweep points at once.

    ``period`` and ``steps_per_period`` take one value or one per
    circuit, so duty, frequency and supply sweeps batch alike;
    ``period / steps_per_period`` is the largest time step (steps are
    graded, see :meth:`BatchTransientSolver.run`).  Circuits
    are grouped by structure internally (any mix may be passed): one
    group per set of node names, element types, names and branches, and
    terminals of every element other than MOSFETs and capacitors.  Those
    two may be wired differently per point, so the weight patterns of
    one adder or perceptron sweep share a group.  Each group's shooting
    iteration integrates one period per open point as one lock-step
    run, one lane each, carrying the period map's Jacobian columns on
    the observed nodes (``BatchTransientSolver.run``'s
    ``sensitivity``).  The stack is block-diagonal, so each point's
    iterates equal its one-point :func:`shooting` run; its waves are
    captured at the iteration where *it* passes the stop test, and it
    then leaves the working set.  ``x0`` gives one start state per
    point; the other arguments are :func:`shooting`'s.
    """
    circuits = list(circuits)
    if not circuits:
        raise AnalysisError("need at least one circuit to batch")
    n_points = len(circuits)
    periods = _per_point(period, n_points, "period")
    if np.any(periods <= 0):
        raise AnalysisError("period must be positive")
    # period / steps per point (float by int).
    dt = periods / np.broadcast_to(np.asarray(steps_per_period),
                                   (n_points,))
    groups: "Dict[tuple, List[int]]" = {}
    for i, c in enumerate(circuits):
        groups.setdefault(_structure_signature(c), []).append(i)

    iterations = np.zeros(n_points, dtype=int)
    residuals = np.full(n_points, np.inf)
    waves: "List[Optional[tuple]]" = [None] * n_points
    for members in groups.values():
        idx = np.asarray(members)
        bts = BatchTransientSolver([circuits[i] for i in members],
                                   solver=solver)
        obs_idx = _observed(bts.circuits[0], observe)
        if x0 is None:
            x = np.stack([operating_point(c, t=0.0, ctx=ctx).x
                          for c, ctx in zip(bts.circuits, bts.contexts)])
        else:
            x = np.stack([np.asarray(x0[i], dtype=float) for i in members])

        # ``open_`` indexes the group's points still iterating.
        open_ = np.arange(len(members))
        for iteration in range(1, max_iterations + 1):
            run = bts.run(periods[idx][open_], dt[idx][open_], x0=x,
                          method=method, points=open_,
                          sensitivity=obs_idx)
            fx = run.final_x
            r = fx[:, obs_idx] - x[:, obs_idx]       # (B, n_obs)
            # Newton on F(x) - x over the observed nodes, with the
            # period map's Jacobian A[i, j] = dF_i/dx_j from the run.
            A = run.phi[:, obs_idx, :]
            dx = np.array([_newton_update(A[k], r[k], update_limit)
                           for k in range(open_.size)])
            res = np.max(np.abs(r), axis=1)
            residuals[idx[open_]] = res
            done = (res < tol) & (np.max(np.abs(dx), axis=1) < tol)
            for i in np.nonzero(done)[0]:
                lane = run.point(i)
                waves[idx[open_[i]]] = (lane.t, lane.X, lane.halvings)
            iterations[idx[open_[done]]] = iteration
            keep = np.nonzero(~done)[0]
            if keep.size == 0:
                break
            # The observed nodes take the Newton step; every other
            # unknown starts from its end state plus the first-order
            # change the step makes there (its row of ``phi``), which
            # is the full Newton step for unknowns that forget their
            # own start within a period.
            x_next = fx[keep] + np.einsum("psj,pj->ps", run.phi[keep],
                                          dx[keep])
            x_next[:, obs_idx] = x[keep][:, obs_idx] + dx[keep]
            x, open_ = x_next, open_[keep]
        else:
            raise ConvergenceError(
                f"shooting did not converge in {max_iterations} "
                f"iterations ({open_.size} of {n_points} points open, "
                f"worst residual {float(np.max(residuals[idx[open_]])):.3g}"
                " V)", analysis="pss")
    return BatchPssResult(circuits, periods, waves, iterations, residuals)


@telemetry.traced("pss.shooting",
                  tags=lambda circuit, *_, **__: {"circuit": circuit.name},
                  done=_note_pss, fails=_PSS_FAILURES)
def shooting(circuit: Circuit, period: float, *, steps_per_period: int = 200,
             observe: Optional[Sequence[str]] = None,
             x0: Optional[np.ndarray] = None,
             max_iterations: int = 15, tol: float = 1e-4,
             method: str = "trap", update_limit: float = 2.0,
             solver: str = "auto") -> PssResult:
    """Newton-shooting PSS of one circuit: a one-point :func:`shooting_batch`.

    From the DC operating point at ``t = 0`` (or ``x0``), each iteration
    integrates one period from ``x``, carrying the sensitivities of the
    state to the observed nodes' start values through every step (the
    period map's exact Jacobian on them, as in Aprille & Trick 1972 and
    Kundert et al. 1990), and takes a Newton step on the observed
    nodes; the fast nodes start the next period from their end state
    moved by the step's first-order effect on it.  It stops once both the
    largest observed residual ``|x(T) - x(0)|`` and the largest Newton
    update are below ``tol`` volts: a slow output node (period-map
    eigenvalue near 1) can sit far from its periodic value at a small
    residual, and the update measures that distance.

    Parameters
    ----------
    period:
        The driving period (all periodic sources must share it).
    steps_per_period:
        Sets the largest time step, ``period / steps_per_period``.
        Steps restart small at every source breakpoint and grow to it
        between them (see :meth:`BatchTransientSolver.run`), so the
        step count per period is larger than this.
    observe:
        Names of the slow nodes to apply Newton to.  Defaults to the
        nodes with explicit capacitors.
    update_limit:
        Per-node clamp on the Newton correction, volts.  Far from the
        periodic solution (a rail-saturated slow node, a nearly
        singular ``I - A``) a full Newton step can leave the rails;
        clamping keeps the update physical.
    """
    return shooting_batch.__wrapped__(
        [circuit], period, steps_per_period=steps_per_period,
        observe=observe, x0=None if x0 is None else [x0],
        max_iterations=max_iterations, tol=tol, method=method,
        update_limit=update_limit, solver=solver).point(0)


#: The former name of :func:`shooting` (profiling hooks use it).
shooting_jacobian_batched = shooting
