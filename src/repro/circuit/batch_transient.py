"""Batched MNA transient and shooting PSS over independent sweep points.

A sweep of one bench — supply, duty cycle, frequency, weight pattern,
Monte-Carlo draws — is a family of circuits that share *structure*:
the same node names and the same elements (type, name, branches), with
every element other than a MOSFET or a capacitor on the same nodes.
Points differ in element values, source timing, and MOSFET/capacitor
terminals, which is how a weight bit wires a cell's gate to the supply
on one point and to ground on another.  Solving points one at a time
repeats the whole Python stepping machinery (breakpoint handling,
companion updates, Newton bookkeeping) once per point; that overhead,
not LAPACK, dominates the wall clock for the paper's small benches.

:class:`BatchTransientSolver` integrates such a family in *ragged*
lock-step.  Every batch row (a "lane") keeps its own breakpoint list,
step size, time, backward-Euler countdown and step-halving retries; the
loop advances by step index, and a lane that reaches its stop time
leaves the working set.  Each Newton pass stamps all ``(B, M)`` MOSFETs
at once through per-point terminal, scatter and sign tables (built once
per solver, gathered once per run) and solves one stacked ``(B, S, S)``
system.  A table entry that a point does not stamp (a ground terminal)
adds ``+-0.0`` to its own lane's block, so every G and I cell sums its
terms in the scalar assembler's element order.  Because the stack is
block-diagonal, each lane's iterates — including the halved retries
after a Newton failure, which only that lane takes — are exactly the
scalar engine's: results are bit-identical to per-point
:func:`repro.circuit.transient.transient` runs (pinned by
``tests/test_sparse_mna.py`` and ``tests/test_batch_kernels.py``).

:func:`shooting_batch` lifts the same trick to periodic steady state:
each iteration stacks every open point's base period run and its
finite-difference probes (unchanged: one ``fd_delta`` probe per
observed node) into one lock-step run, and a point's PSS is captured at
the iteration where *it* converges — matching the scalar
:func:`repro.circuit.pss.shooting` point for point.  Points group by
the structure above, so a weight-pattern sweep of the adder or the
perceptron is one group.
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
from .elements.sources import PwmVoltage, Vdc, VoltageSource, Vpulse
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
from .pss import (_PSS_FAILURES, PssResult, _newton_update, _note_pss,
                  _observed)
from .sparse import (
    check_solver,
    choose_backend,
    matrix_fill,
    sparse_solve,
    sparse_solve_batch,
)
from .transient import BE_STEPS_AFTER_BREAKPOINT, MIN_STEP, TransientResult
from .waveform import Waveform

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
    """Stacked ``(P, S, S) @ x = (P, S)`` solve, minimal overhead.

    Callers run under a suppressing ``np.errstate`` (singular systems
    surface as NaNs and are handled by the finite-ness check).
    """
    if _gufunc_solve is not None:
        return _gufunc_solve(G, I[:, :, None])[:, :, 0]
    return np.linalg.solve(G, I[:, :, None])[:, :, 0]


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

    ``g_lin`` (flat ``S*S`` cells), ``i_rows`` (RHS rows) and their
    signs hold one list per point, entry for entry in the scalar
    assembler's order; ``None`` marks an entry that point does not
    stamp (a ground terminal).  Entries no point stamps are dropped
    (``g_kept``/``i_kept`` index the survivors), so a single-wiring
    batch keeps exactly the scalar pattern.  The rest are masked per
    point: cell or row 0 of the lane's own block with sign 0.0, whose
    ``+-0.0`` adds leave every cell's bits unchanged (no cell is ever
    -0.0, and the stamped values are finite: Newton clamps node steps to
    ``NEWTON_VLIMIT``).  :meth:`bind` gathers the tables for a run's
    lanes; :meth:`g` and :meth:`i` give flat 1-D scatter indices
    (``ufunc.at`` is several times slower on 2-D ones) and sign tables
    for a slice or index array of lanes.
    """

    def __init__(self, g_lin: List[list], g_sign: List[list],
                 i_rows: List[list], i_sign: List[list], size: int):
        self.g_kept, self._g_lin, self._g_sign = self._stack(g_lin, g_sign)
        self.i_kept, self._i_rows, self._i_sign = self._stack(i_rows, i_sign)
        self._block = size * size

    @staticmethod
    def _stack(index: List[list], sign: List[list]):
        stamped = np.array([[v is not None for v in row] for row in index],
                           dtype=bool).reshape(len(index), -1)
        kept = np.nonzero(stamped.any(axis=0))[0]
        table = np.array([[0 if v is None else v for v in row]
                          for row in index],
                         dtype=np.intp).reshape(stamped.shape)[:, kept]
        signs = np.where(stamped, np.array(sign, dtype=float).reshape(
            stamped.shape), 0.0)[:, kept]
        return kept, table, signs

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
        self.size = size
        # Per-point values, (K, P): parasitic caps scale with device
        # geometry, which Monte-Carlo batches perturb per point.
        self.c = np.array([[c.capacitance for c in point_caps]
                           for point_caps in caps_by_point]
                          ).reshape(len(caps_by_point), self.n).T
        if self.n == 0:
            return
        idx = np.array([[c._idx for c in point_caps]
                        for point_caps in caps_by_point], dtype=np.intp)
        # Padded-state gathers per point, (P, K): ground reads the zero
        # column.
        self._a = np.where(idx[:, :, 0] >= 0, idx[:, :, 0], size)
        self._b = np.where(idx[:, :, 1] >= 0, idx[:, :, 1], size)
        self.ic = np.array([[np.nan if c.ic is None else c.ic
                             for c in point_caps]
                            for point_caps in caps_by_point]).T
        self._live = self.c > 0.0
        live = np.nonzero(self._live.any(axis=1))[0]
        # G and RHS scatter patterns in element order (a then b rows;
        # for G the scalar add_conductance sequence aa, bb, -ab, -ba),
        # so cells shared by several caps accumulate exactly as the
        # scalar assembler sums them.
        g_lin, g_sign, i_rows, i_sign = [], [], [], []
        for ab in idx[:, live]:
            g_lin.append([r * size + c if r >= 0 and c >= 0 else None
                          for a, b in ab
                          for r, c in ((a, a), (b, b), (a, b), (b, a))])
            g_sign.append([1.0, 1.0, -1.0, -1.0] * live.size)
            i_rows.append([node if node >= 0 else None
                           for a, b in ab for node in (a, b)])
            i_sign.append([-1.0, 1.0] * live.size)
        self._scatter = _Scatter(g_lin, g_sign, i_rows, i_sign, size)
        self._g_cap = live[self._scatter.g_kept // 4]
        self._i_cap = live[self._scatter.i_kept // 2]

    def init_state(self, x_pad_cols: np.ndarray, circ: np.ndarray) -> None:
        """Bind the run's lanes (``circ`` names each lane's circuit) and
        their start states, padded ``(L, S+1)``."""
        self._c_lanes = self.c[:, circ]
        if self.n == 0:
            return
        self._live_lanes = self._live[:, circ]
        self._scatter.bind(circ)
        self._pad_off = np.arange(circ.size)[None, :] * (self.size + 1)
        self._lane_ab = np.stack([self._a[circ].T, self._b[circ].T])
        self._full_ab = self._lane_ab + self._pad_off
        self.v_prev = self._voltages(x_pad_cols, slice(None))
        ic = self.ic[:, circ]
        has_ic = np.isfinite(ic)
        if has_ic.any():
            self.v_prev[has_ic] = ic[has_ic]
        self.i_prev = np.zeros_like(self.v_prev)

    def _voltages(self, x_pad_cols: np.ndarray, lanes) -> np.ndarray:
        """Element voltages ``(K, B)`` from padded ``(B, S+1)`` states."""
        ab = (self._full_ab if isinstance(lanes, slice) else
              self._lane_ab[:, :, lanes] + self._pad_off[:, :lanes.size])
        va, vb = x_pad_cols.take(ab)
        return va - vb

    def geq(self, lanes, dt: np.ndarray, be: np.ndarray) -> np.ndarray:
        """Companion conductances ``(K, B)``: ``C/dt`` for backward
        Euler, ``2C/dt`` for trapezoidal, per lane."""
        return np.where(be, 1.0, 2.0) * self._c_lanes[:, lanes] / dt

    def add_geq_stack(self, G_stack: np.ndarray, geq: np.ndarray,
                      lanes) -> None:
        """Companion conductances onto the stacked base, ``(B, S, S)``."""
        if self.n == 0 or self._g_cap.size == 0:
            return
        lin, sign = self._scatter.g(lanes)
        np.add.at(G_stack.reshape(-1), lin,
                  (geq.T.take(self._g_cap, axis=1) * sign).ravel())

    def _history(self, be: np.ndarray,
                 lanes) -> "tuple[np.ndarray, np.ndarray]":
        """``v_prev`` and the trapezoidal ``i_prev`` term (0 under BE;
        ``x - 0.0`` is exactly ``x``, so BE lanes match the scalar
        engine's term-free update)."""
        return self.v_prev[:, lanes], np.where(be, 0.0,
                                               self.i_prev[:, lanes])

    def stamp_rhs(self, I_t: np.ndarray, geq: np.ndarray, be: np.ndarray,
                  lanes) -> None:
        """Equivalent currents into the transposed RHS ``(S, B)``."""
        if self.n == 0 or self._i_cap.size == 0:
            return
        v_prev, i_term = self._history(be, lanes)
        ieq = -geq * v_prev - i_term
        lin, sign = self._scatter.i(lanes)
        # add_current(a, b, ieq): I[a] -= ieq, I[b] += ieq.
        np.add.at(I_t.reshape(-1), lin,
                  (sign * ieq.take(self._i_cap, axis=0)).ravel())

    def accept_step(self, x_pad_cols: np.ndarray, geq: np.ndarray,
                    be: np.ndarray, lanes) -> None:
        if self.n == 0:
            return
        v_new = self._voltages(x_pad_cols, lanes)
        v_prev, i_term = self._history(be, lanes)
        i_new = geq * (v_new - v_prev) - i_term
        self.i_prev[:, lanes] = np.where(self._live_lanes[:, lanes],
                                         i_new, 0.0)
        self.v_prev[:, lanes] = v_new


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
        # G entries in the scalar _MosfetGroup.stamp order: per block,
        # gm (d,g)+ (d,s)- (s,g)- (s,s)+ then gds (d,d)+ (s,s)+ (d,s)-
        # (s,d)-, each block over all devices.  Values come from one
        # (B, 2M) [gm | gds + GMIN_DS] buffer through a source-column
        # table; +-1 factors are exact.
        g_lin, g_sign, i_rows, i_sign = [], [], [], []
        for g in groups:
            rows = (g.d, g.d, g.s, g.s, g.d, g.s, g.d, g.s)
            cols = (g.g, g.s, g.g, g.s, g.d, g.s, g.s, g.d)
            g_lin.append([r * size + c if r >= 0 and c >= 0 else None
                          for rr, cc in zip(rows, cols)
                          for r, c in zip(rr.tolist(), cc.tolist())])
            g_sign.append(np.repeat([1.0, -1.0, -1.0, 1.0,
                                     1.0, 1.0, -1.0, -1.0], m).tolist())
            # RHS: -ieq into every drain row, then +ieq into every
            # source row, as the scalar stamp's two scatters.
            i_rows.append([v if v >= 0 else None
                           for v in np.concatenate([g.d, g.s]).tolist()])
            i_sign.append([-1.0] * m + [1.0] * m)
        self._scatter = _Scatter(g_lin, g_sign, i_rows, i_sign, size)
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
    """Per-lane source values into the transposed RHS.

    DC rails gather one value per circuit; PWM/pulse drivers evaluate
    one array expression over every lane's own timing and time, with
    the branch order and arithmetic of the scalar ``Vpulse.value`` (so
    results stay bit-identical); anything else calls each point's
    ``value(t)``.
    """

    def __init__(self, sources_by_point: List[List]):
        first = sources_by_point[0]
        self._by_point = sources_by_point
        const, pulse, self._other, self._isrc = [], [], [], []
        for k, el in enumerate(first):
            if not isinstance(el, VoltageSource):
                self._isrc.append(k)
            elif type(el) is Vdc:
                const.append(k)
            elif type(el) in (Vpulse, PwmVoltage):
                pulse.append(k)
            else:
                self._other.append(k)
        self._const_rows = np.array(
            [first[k]._branch[0] for k in const], dtype=np.intp)
        self._const = np.array([[pt[k].voltage for pt in sources_by_point]
                                for k in const]
                               ).reshape(len(const), len(sources_by_point))
        self._pulse_rows = np.array(
            [first[k]._branch[0] for k in pulse], dtype=np.intp)
        # (9, K, P): v1, v2, delay, rise, width, fall, period, then the
        # ramp spans v2 - v1 and v1 - v2; (2, K, P): zero rise, zero fall.
        pulse_params = np.array([[[getattr(pt[k], f)
                                   for pt in sources_by_point]
                                  for k in pulse]
                                 for f in ("v1", "v2", "delay", "rise",
                                           "width", "fall", "period")]
                                ).reshape(7, len(pulse),
                                          len(sources_by_point))
        v1, v2 = pulse_params[0], pulse_params[1]
        self._pulse = np.concatenate([pulse_params, [v2 - v1, v1 - v2]])
        self._pulse_zero = pulse_params[[3, 5]] == 0

    def bind(self, circ: np.ndarray) -> None:
        """Gather the source values of the run's lanes."""
        self._circ = circ
        self._const_lanes = self._const[:, circ]
        self._pulse_lanes = self._pulse[:, :, circ]
        self._pulse_zero_lanes = self._pulse_zero[:, :, circ]

    def stamp(self, I_t: np.ndarray, t: np.ndarray, lanes) -> None:
        if self._const_rows.size:
            I_t[self._const_rows] += self._const_lanes[:, lanes]
        if self._pulse_rows.size:
            v1, v2, delay, rise, width, fall, period, up, down = \
                self._pulse_lanes[:, :, lanes]
            rise0, fall0 = self._pulse_zero_lanes[:, :, lanes]
            # Vpulse.value, branch for branch, as masked arrays.
            tau = (t - delay) % period
            ramp_up = v1 + up * tau / rise
            tau2 = tau - rise
            tau3 = tau2 - width
            ramp_down = v2 + down * tau3 / fall
            I_t[self._pulse_rows] += np.where(
                t < delay, v1,
                np.where(tau < rise, np.where(rise0, v2, ramp_up),
                         np.where(tau2 < width, v2,
                                  np.where(tau3 < fall,
                                           np.where(fall0, v1, ramp_down),
                                           v1))))
        if not (self._other or self._isrc):
            return
        circ = self._circ[lanes]
        for k in self._other:
            br = self._by_point[0][k]._branch[0]
            I_t[br] += [self._by_point[p][k].value(tb)
                        for p, tb in zip(circ, t.tolist())]
        for k in self._isrc:
            a, b = self._by_point[0][k]._idx
            for col, (p, tb) in enumerate(zip(circ, t.tolist())):
                el = self._by_point[p][k]
                i = el._fn(tb) if hasattr(el, "_fn") else el.current
                if a >= 0:
                    I_t[a, col] -= i
                if b >= 0:
                    I_t[b, col] += i


class BatchTransientResult:
    """Ragged lock-step solution, indexed by step.

    ``times`` is ``(N+1, L)`` and ``X`` is ``(N+1, L, S)``; lane ``l``
    took ``steps[l]`` steps, and its rows past that repeat its final
    state.  ``halvings[l]`` counts the lane's step-size halvings.
    """

    def __init__(self, circuits: List[Circuit], times: np.ndarray,
                 X: np.ndarray, steps: np.ndarray, halvings: np.ndarray):
        self.circuits = circuits
        self.times = times
        self.X = X
        self.steps = steps
        self.halvings = halvings

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
    geometry, weight wirings — are free to differ per point.
    Unsupported in batches: inductors and non-MOSFET nonlinear devices
    (switches), which keep per-element Python state the vectorised layer
    does not model.
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
        for ctx in self.contexts:
            if ctx.other_nonlinear:
                raise AnalysisError(
                    "batched transient does not support non-MOSFET "
                    "nonlinear elements (switches); use the scalar "
                    "engine")
            if any(isinstance(el, Inductor) for el in ctx.reactive_elements):
                raise AnalysisError(
                    "batched transient does not support inductors yet; "
                    "use the scalar engine")

        # Voltage-source structure stamps (branch KCL + voltage rows)
        # are value-independent exact +/-1 entries in cells the static
        # stamps never touch: fold them into the per-point static base.
        G_sources = np.zeros((self.size, self.size))
        sys_view = ctx0.sys_view(G_sources, np.zeros(self.size))
        names = [el.name for el in ctx0.circuit.by_category[SOURCE]]
        for el in ctx0.circuit.by_category[SOURCE]:
            if isinstance(el, VoltageSource):
                a, b = el._idx
                br = el._branch[0]
                sys_view.stamp_branch_kcl(a, b, br)
                sys_view.stamp_branch_voltage_row(br, a, b)
        self._G_fixed = np.stack([ctx._G_static for ctx in self.contexts]) \
            + G_sources[None, :, :]
        self._I_static = np.stack([ctx._I_static for ctx in self.contexts])
        by_name = [{el.name: el for el in ctx.circuit.by_category[SOURCE]}
                   for ctx in self.contexts]
        self._sources = _BatchSources([[bn[n] for n in names]
                                       for bn in by_name])
        self._caps = _BatchCapacitors(
            [[el for el in ctx.reactive_elements
              if isinstance(el, Capacitor)] for ctx in self.contexts],
            self.size)
        self._mosfets = _BatchMosfets(self.contexts)
        self._bp_cache: "dict[tuple, list]" = {}
        # Per-column Newton tolerance: abstol on node voltages, itol on
        # branch currents.
        self._tol = np.full(self.size, NEWTON_ITOL)
        self._tol[:self.n_nodes] = NEWTON_ABSTOL

    # -- assembly ----------------------------------------------------------

    def _breakpoints(self, circ: np.ndarray, tstart: float,
                     tstop: np.ndarray) -> np.ndarray:
        """Per-lane step targets ``(L, W)``: interior breakpoints, then
        the stop time, padded with ``inf``."""
        rows = []
        for p, t1 in zip(circ.tolist(), tstop.tolist()):
            key = (p, tstart, t1)
            bps = self._bp_cache.get(key)
            if bps is None:
                bps = [b for b in self.contexts[p].breakpoints(tstart, t1)
                       if tstart < b < t1] + [t1]
                self._bp_cache[key] = bps
            rows.append(bps)
        out = np.full((len(rows), max(map(len, rows)) + 1), np.inf)
        for lane, bps in enumerate(rows):
            out[lane, :len(bps)] = bps
        return out

    def _base_stack(self, lanes, dt: np.ndarray, be: np.ndarray,
                    geq: np.ndarray) -> np.ndarray:
        """Static + source + companion matrices for the lanes, ``(B, S, S)``.

        Steps at a lane's nominal size reuse the run's precomputed
        trapezoidal/BE stacks; breakpoint-shortened or halved steps
        assemble their own.  Callers copy before stamping.
        """
        nominal = dt == self._dt_nominal[lanes]
        if nominal.all() and (be.all() or not be.any()):
            return (self._G_be if be[0] else self._G_trap)[lanes]
        ids = self._lane_ids[lanes]
        G = self._G_trap[ids]
        sel = nominal & be
        if sel.any():
            G[sel] = self._G_be[ids[sel]]
        off = ~nominal
        if off.any():
            sub = self._G_fixed[self._circ[ids[off]]]
            self._caps.add_geq_stack(sub, geq[:, off], ids[off])
            G[off] = sub
        return G

    # -- Newton -----------------------------------------------------------

    @telemetry.traced(
        "mna.newton",
        tags=lambda self, x0, *_, **__: {
            "analysis": "batch-transient", "points": x0.shape[0],
            "size": self.size})
    def _solve_newton(self, x0: np.ndarray, t: np.ndarray, dt: np.ndarray,
                      be: np.ndarray, geq: np.ndarray,
                      lanes) -> "tuple[np.ndarray, np.ndarray]":
        """Damped Newton at one step, vectorised over lanes.

        ``t``, ``dt``, ``be`` (backward Euler, else trapezoidal) and the
        companion conductances ``geq`` ``(K, B)`` are per lane.
        Block-diagonal structure keeps every lane's iterate sequence
        identical to the scalar engine's (same ``NEWTON_*`` settings):
        updates, clamping and the convergence test apply per lane, and a
        converged lane leaves the working set while the rest keep
        iterating.  Returns the states and a mask of lanes that failed
        (non-finite solution or no convergence in ``NEWTON_MAX_ITER``).
        """
        rt = telemetry.active()
        G_base = self._base_stack(lanes, dt, be, geq)
        # (S, B), C-contiguous: the stamps scatter through flat indices.
        I_t_base = (self._I_t_static.copy() if isinstance(lanes, slice)
                    else self._I_t_static.take(lanes, axis=1))
        # Scalar assembly order: sources first, then reactive companions.
        self._sources.stamp(I_t_base, t, lanes)
        self._caps.stamp_rhs(I_t_base, geq, be, lanes)
        lane_ids = self._lane_ids[lanes]

        x = x0.copy()                                # (B, S)
        n = self.n_nodes
        tol = self._tol
        n_lanes = x.shape[0]
        failed = np.zeros(n_lanes, dtype=bool)
        has_nonlinear = self._mosfets.m > 0
        # Positions of lanes still iterating.  The stacked system is
        # block-diagonal, so dropping a converged lane's rows neither
        # changes the others' iterates nor its own frozen solution.
        work = np.arange(n_lanes)

        for iteration in range(1, NEWTON_MAX_ITER + 1):
            full = work.size == n_lanes
            # Fancy indexing already copies, so subsets skip the
            # explicit copy (and a full slice-selected base is a view).
            G = G_base.copy() if full else G_base[work]
            I_t = I_t_base.copy() if full else I_t_base.take(work, axis=1)
            x_work = x if full else x[work]
            if has_nonlinear:
                xpad = self._xpad_cols[:work.size]
                xpad[:, :-1] = x_work
                self._mosfets.stamp(G, I_t, xpad,
                                    lanes if full else lane_ids[work])
            if self._backend is None:
                self._backend = choose_backend(
                    self.size, matrix_fill(G[0]), self.solver)
                if rt is not None:
                    rt.count("repro_mna_backend_decisions_total",
                             solver=self.solver, backend=self._backend)
            if self._backend == "sparse":
                x_new = _sparse_rows(G, I_t.T)
            else:
                x_new = _batched_solve(G, I_t.T)
            if not np.isfinite(x_new).all():
                # Diverged or singular (the gufunc signals singular
                # matrices with NaNs): those lanes fail this attempt.
                finite = np.isfinite(x_new).all(axis=1)
                failed[work[~finite]] = True
                work, x_new = work[finite], x_new[finite]
                x_work = x_work[finite]
                if work.size == 0:
                    break
                full = False
            if not has_nonlinear:
                x[work] = x_new
                work = work[:0]
                break
            dx = x_new - x_work
            abs_dx = np.abs(dx)
            # One fused test, elementwise equal to the scalar engine's
            # separate v/i tests.
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
                x[...] = x_new
            else:
                x[work] = x_new
            if conv.all():
                work = work[:0]
                break
            work = work[~conv]
        failed[work] = True
        if rt is not None:
            if not failed.all():
                rt.count("repro_mna_newton_solves_total")
                rt.count("repro_mna_newton_iterations_total", iteration,
                         backend=self._backend or "dense")
            if failed.any():
                rt.count("repro_mna_convergence_failures_total",
                         int(failed.sum()), analysis="batch-transient")
        return x, failed

    # -- integration -------------------------------------------------------

    def run(self, tstop, dt, *, tstart: float = 0.0,
            method: str = "trap", x0: Optional[np.ndarray] = None,
            max_retries: int = 10,
            points: Optional[Sequence[int]] = None) -> BatchTransientResult:
        """Integrate every lane from ``tstart`` to its ``tstop``.

        ``tstop`` and ``dt`` take one value or one per lane.  ``points``
        names the circuit each lane integrates (default: one lane per
        circuit, in order; a circuit may back several lanes).  ``x0`` is
        the stacked initial state ``(L, S)``; ``None`` solves each
        lane's DC operating point at ``tstart`` first (scalar, so the
        starting states match per-point runs exactly).
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
                                     max_retries)
        rt = telemetry.active()
        if rt is not None:
            rt.count("repro_mna_steps_total", int(result.steps.sum()))
            rt.count("repro_mna_step_halvings_total",
                     int(result.halvings.sum()))
        return result

    @staticmethod
    def _advance(rows, t, eps, targets, pos, nxt) -> None:
        """Move each lane's next target past breakpoints at or before
        ``t + eps``, as the scalar loop skips them."""
        rows = rows[nxt[rows] <= t[rows] + eps[rows]]
        while rows.size:
            pos[rows] += 1
            nxt[rows] = targets[rows, pos[rows]]
            rows = rows[nxt[rows] <= t[rows] + eps[rows]]

    def _integrate(self, circ, tstart, tstop, dt, method, x,
                   max_retries) -> BatchTransientResult:
        n_lanes = circ.size
        self._circ = circ
        self._lane_ids = np.arange(n_lanes)
        self._dt_nominal = dt
        self._I_t_static = self._I_static[circ].T.copy()
        # Padded states (last column zero for ground gathers), shared by
        # the MOSFET stamps and the capacitor voltages.
        xpad = self._xpad_cols = np.zeros((n_lanes, self.size + 1))
        xpad[:, :-1] = x
        self._caps.init_state(xpad, circ)
        self._sources.bind(circ)
        self._mosfets.bind(circ)
        # The run's nominal-step matrices, one per integration method.
        stacks = []
        for be in (False, True):
            G = self._G_fixed[circ]
            self._caps.add_geq_stack(
                G, self._caps.geq(slice(None), dt, np.full(n_lanes, be)),
                slice(None))
            stacks.append(G)
        self._G_trap, self._G_be = stacks

        targets = self._breakpoints(circ, tstart, tstop)
        eps = dt * 1e-9
        stop = tstop - eps
        t = np.full(n_lanes, float(tstart))
        pos = np.zeros(n_lanes, dtype=np.intp)
        nxt = targets[:, 0].copy()       # each lane's next step target
        # Steps left on backward Euler; the initial ramp is a corner
        # too.  Below zero means trapezoidal, as zero does.
        countdown = np.full(n_lanes, BE_STEPS_AFTER_BREAKPOINT)
        halvings = np.zeros(n_lanes, dtype=int)
        force_be = method == "be"
        times: List[np.ndarray] = [t.copy()]
        states: List[np.ndarray] = [x.copy()]

        self._advance(self._lane_ids, t, eps, targets, pos, nxt)
        act = self._lane_ids[t < stop]
        while act.size:
            # Lanes still stepping; a full working set indexes by slice
            # (views, no gathers).
            ix = slice(None) if act.size == n_lanes else act
            t_act, next_bp = t[ix], nxt[ix]
            h = np.minimum(dt[ix], next_bp - t_act)
            be = (countdown[ix] > 0) | force_be
            t_new = t_act + h
            geq = self._caps.geq(ix, h, be)

            # Newton failures halve only the failing lanes' steps and
            # retry them, exactly as the scalar loop does per point.
            x_acc, failed = self._solve_newton(x[ix], t_new, h, be, geq, ix)
            pending = np.nonzero(failed)[0]
            attempts = 1
            while pending.size:
                rows = act[pending]
                h[pending] *= 0.5
                be[pending] = True
                halvings[rows] += 1
                if attempts == max_retries or (h[pending] < MIN_STEP).any():
                    raise ConvergenceError(
                        "batched transient step failed even at minimum "
                        "step size", analysis="batch-transient",
                        time=float(t_act[pending[0]]))
                t_new[pending] = t_act[pending] + h[pending]
                geq[:, pending] = self._caps.geq(rows, h[pending],
                                                 be[pending])
                x_new, failed = self._solve_newton(
                    x[rows], t_new[pending], h[pending], be[pending],
                    geq[:, pending], rows)
                x_acc[pending[~failed]] = x_new[~failed]
                pending = pending[failed]
                attempts += 1

            xpad = self._xpad_cols[:x_acc.shape[0]]
            xpad[:, :-1] = x_acc
            self._caps.accept_step(xpad, geq, be, ix)
            countdown[ix] -= 1
            t[ix] = t_new
            x[ix] = x_acc
            times.append(t.copy())
            states.append(x.copy())
            # Steps never pass their target, so a lane within eps of it
            # sits on the breakpoint: restart its BE countdown and move
            # its target past every breakpoint within eps.
            hit = act[next_bp - t_new <= eps[ix]]
            if hit.size:
                countdown[hit] = BE_STEPS_AFTER_BREAKPOINT
                self._advance(hit, t, eps, targets, pos, nxt)
            act = act[t_new < stop[ix]]

        times = np.stack(times)
        # Finished lanes repeat their stop time, so a lane's step count
        # is the number of earlier rows.
        steps = (times < times[-1]).sum(axis=0)
        return BatchTransientResult([self.circuits[p] for p in circ.tolist()],
                                    times, np.stack(states), steps, halvings)


class BatchPssResult:
    """Periodic steady states of a circuit batch.

    Every reduction mirrors :class:`~repro.circuit.pss.PssResult`, one
    value per point; :meth:`point` recovers a scalar result object.
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

    def ripples(self, node: str) -> np.ndarray:
        return self._reduce(node, "peak_to_peak")

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
                   warmup_periods: int = 2, max_iterations: int = 15,
                   tol: float = 1e-4, fd_delta: float = 5e-3,
                   method: str = "trap",
                   update_limit: float = 2.0,
                   solver: str = "auto") -> BatchPssResult:
    """Newton-shooting PSS for a whole batch of sweep points at once.

    ``period`` and ``steps_per_period`` take one value or one per
    circuit, so duty, frequency and supply sweeps batch alike.  Circuits
    are grouped by structure internally (any mix may be passed): one
    group per set of node names, element types, names and branches, and
    terminals of every element other than MOSFETs and capacitors.  Those
    two may be wired differently per point, so the weight patterns of
    one adder or perceptron sweep share a group.  Each group's shooting
    iterations run its open points' base period runs and
    finite-difference probes (one ``fd_delta`` probe per observed node,
    as in the scalar engine) as one speculative lock-step run.  The
    stack is block-diagonal, so each point's iterates equal the scalar
    :func:`~repro.circuit.pss.shooting` sequence; its waves are captured
    at the iteration where *its* residual first drops under ``tol``
    (exactly the scalar return), and it then leaves the working set.
    ``x0`` gives one start state per point.  Defaults mirror the scalar
    engine's.
    """
    circuits = list(circuits)
    if not circuits:
        raise AnalysisError("need at least one circuit to batch")
    n_points = len(circuits)
    periods = _per_point(period, n_points, "period")
    if np.any(periods <= 0):
        raise AnalysisError("period must be positive")
    # period / steps, as the scalar engine divides (float by int).
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
        for _ in range(max(warmup_periods, 0)):
            x = bts.run(periods[idx], dt[idx], x0=x, method=method).final_x

        # Lanes per open point: its base run, then one probe per
        # observed node.  ``open_`` indexes the group's points.
        n_obs = len(obs_idx)
        width = 1 + n_obs
        open_ = np.arange(len(members))
        for iteration in range(1, max_iterations + 1):
            lanes = np.repeat(open_, width)
            starts = np.repeat(x, width, axis=0)
            for j in range(n_obs):
                starts[1 + j::width, obs_idx[j]] += fd_delta
            run = bts.run(periods[idx][lanes], dt[idx][lanes], x0=starts,
                          method=method, points=lanes)
            fx_all = run.final_x.reshape(open_.size, width, -1)
            fx = fx_all[:, 0]
            r = fx[:, obs_idx] - x[:, obs_idx]       # (B, n_obs)
            res = np.max(np.abs(r), axis=1)
            residuals[idx[open_]] = res
            done = res < tol
            for i in np.nonzero(done)[0]:
                lane = run.point(i * width)
                waves[idx[open_[i]]] = (lane.t, lane.X, lane.halvings)
            iterations[idx[open_[done]]] = iteration
            keep = np.nonzero(~done)[0]
            if keep.size == 0:
                break
            # Finite-difference Jacobian of the period map per point,
            # then the scalar engine's Newton update.
            A = ((fx_all[keep][:, 1:, obs_idx] - fx[keep][:, None, obs_idx])
                 / fd_delta).transpose(0, 2, 1)
            x_next = fx[keep].copy()
            for row, p in enumerate(keep):
                x_next[row, obs_idx] = x[p, obs_idx] + _newton_update(
                    A[row], r[p], update_limit)
            x, open_ = x_next, open_[keep]
        else:
            raise ConvergenceError(
                f"batched shooting did not converge in {max_iterations} "
                f"iterations ({open_.size} of {n_points} points open, "
                f"worst residual {float(np.max(residuals[idx[open_]])):.3g}"
                " V)", analysis="pss")
    return BatchPssResult(circuits, periods, waves, iterations, residuals)


#: :func:`shooting_batch` without its span and counters, for
#: :func:`shooting_jacobian_batched`, which records its own.
_shooting_batch = shooting_batch.__wrapped__


@telemetry.traced("pss.shooting_jacobian",
                  tags=lambda circuit, *_, **__: {"circuit": circuit.name},
                  done=_note_pss, fails=_PSS_FAILURES)
def shooting_jacobian_batched(circuit: Circuit, period: float, *,
                              steps_per_period: int = 200,
                              observe: Optional[Sequence[str]] = None,
                              x0: Optional[np.ndarray] = None,
                              warmup_periods: int = 2,
                              max_iterations: int = 15,
                              tol: float = 1e-4, fd_delta: float = 5e-3,
                              method: str = "trap",
                              update_limit: float = 2.0,
                              solver: str = "auto") -> PssResult:
    """Newton-shooting PSS of **one** circuit through :func:`shooting_batch`.

    Each shooting iteration's base period run and its finite-difference
    probes (one per observed node) run as one lock-step solve;
    iterates, residuals and waves equal the scalar
    :func:`~repro.circuit.pss.shooting` sequence bit for bit.
    """
    return _shooting_batch(
        [circuit], period, steps_per_period=steps_per_period,
        observe=observe, x0=None if x0 is None else [x0],
        warmup_periods=warmup_periods, max_iterations=max_iterations,
        tol=tol, fd_delta=fd_delta, method=method,
        update_limit=update_limit, solver=solver).point(0)
