"""MNA assembly for one compiled circuit, and the DC Newton solve.

:class:`MnaContext` caches everything that does not change between
solves: static (linear) stamps plus ``gmin``, the vectorised index
arrays of the MOSFET group, and a scratch system.  Its damped Newton
(:meth:`MnaContext.solve_newton`) solves one DC point — capacitors open,
inductors shorted — for the operating point, DC sweeps and the AC bias.
Transient and PSS runs step through the lock-step stepper in
:mod:`repro.circuit.batch_transient`, which builds on the same contexts
and shares the ``NEWTON_*`` settings below.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import telemetry
from ..tech.mosfet_models import ids_full_vec
from .elements.base import NONLINEAR, REACTIVE, SOURCE, STATIC, MnaSystem
from .elements.mosfet import GMIN_DS, Mosfet
from .exceptions import ConvergenceError, SingularMatrixError
from .netlist import Circuit
from .sparse import check_solver, choose_backend, matrix_fill, sparse_solve

#: Default conductance from every node to ground, for matrix regularity.
DEFAULT_GMIN = 1e-12

#: Damped-Newton settings shared by the DC solve and the time stepper:
#: iteration cap, per-iteration node-voltage step limit (V), and the
#: convergence test ``|dx| <= tol + NEWTON_RELTOL * |x|`` with ``tol``
#: NEWTON_ABSTOL on node voltages and NEWTON_ITOL on branch currents.
NEWTON_MAX_ITER = 80
NEWTON_VLIMIT = 1.0
NEWTON_ABSTOL = 1e-6
NEWTON_RELTOL = 1e-4
NEWTON_ITOL = 1e-9


def _note_newton(rt, iterations: int, backend: Optional[str]) -> None:
    """Record one converged Newton solve (telemetry enabled only)."""
    rt.count("repro_mna_newton_solves_total")
    rt.count("repro_mna_newton_iterations_total", iterations,
             backend=backend or "dense")


class _MosfetGroup:
    """Precomputed scatter indices for vectorised MOSFET stamping."""

    def __init__(self, mosfets: List[Mosfet], size: int):
        self.devices = mosfets
        n = len(mosfets)
        self.n = n
        if n == 0:
            return
        d = np.array([m._idx[0] for m in mosfets], dtype=np.intp)
        g = np.array([m._idx[1] for m in mosfets], dtype=np.intp)
        s = np.array([m._idx[2] for m in mosfets], dtype=np.intp)
        self.d, self.g, self.s = d, g, s
        self.sign = np.array([m.model.sign for m in mosfets])
        self.beta = np.array(
            [m.model.kp * m.width / m.length for m in mosfets]
        )
        self.vt = np.array([abs(m.model.vt0) for m in mosfets])
        self.lam = np.array([m.model.lam for m in mosfets])
        self.n_sub = np.array([m.model.n_sub for m in mosfets])
        # Ground-safe gather indices: ground (-1) reads a padded zero.
        self.d_gather = np.where(d >= 0, d, size)
        self.g_gather = np.where(g >= 0, g, size)
        self.s_gather = np.where(s >= 0, s, size)
        # G-matrix scatter pattern.  Per device, in order:
        #   gm block:  (d,g)+ (d,s)- (s,g)- (s,s)+
        #   gds block: (d,d)+ (s,s)+ (d,s)- (s,d)-
        rows = np.concatenate([d, d, s, s, d, s, d, s])
        cols = np.concatenate([g, s, g, s, d, s, s, d])
        valid = (rows >= 0) & (cols >= 0)
        self.lin = (rows * size + cols)[valid]
        self.valid = valid
        self.d_valid = d >= 0
        self.s_valid = s >= 0

    def stamp(self, G: np.ndarray, I: np.ndarray, x_padded: np.ndarray) -> None:
        """Accumulate linearised device stamps for the solution estimate."""
        vd = x_padded[self.d_gather]
        vg = x_padded[self.g_gather]
        vs = x_padded[self.s_gather]
        ids, gm, gds = ids_full_vec(vd, vg, vs, self.sign, self.beta,
                                    self.vt, self.lam, self.n_sub)
        gt = gds + GMIN_DS
        ieq = ids - gm * (vg - vs) - gds * (vd - vs)
        vals = np.concatenate([gm, -gm, -gm, gm, gt, gt, -gt, -gt])[self.valid]
        np.add.at(G.reshape(-1), self.lin, vals)
        np.add.at(I, self.d[self.d_valid], -ieq[self.d_valid])
        np.add.at(I, self.s[self.s_valid], ieq[self.s_valid])


class MnaContext:
    """Reusable solver workspace for one compiled circuit."""

    def __init__(self, circuit: Circuit, *, gmin: float = DEFAULT_GMIN,
                 solver: str = "auto"):
        circuit.compile()
        self.circuit = circuit
        self.gmin = gmin
        self.solver = check_solver(solver)
        #: Concrete backend ("dense"/"sparse"), decided lazily from the
        #: first fully assembled matrix (its fill is what the crossover
        #: heuristic needs, and it is unknown before stamping).
        self._backend: Optional[str] = None
        self.n_nodes = circuit.n_nodes
        self.size = circuit.size
        cats = circuit.by_category
        self.static_elements = cats[STATIC]
        self.reactive_elements = cats[REACTIVE]
        self.source_elements = cats[SOURCE]
        mosfets = [el for el in cats[NONLINEAR] if isinstance(el, Mosfet)]
        self.other_nonlinear = [
            el for el in cats[NONLINEAR] if not isinstance(el, Mosfet)
        ]
        self.mosfet_group = _MosfetGroup(mosfets, self.size)
        self.sys = MnaSystem(circuit.n_nodes, circuit.n_branches)

        # Static base: linear elements + gmin on every node diagonal.
        self.sys.clear()
        for el in self.static_elements:
            el.stamp_static(self.sys)
        for i in range(self.n_nodes):
            self.sys.G[i, i] += gmin
        self._G_static = self.sys.G.copy()
        self._I_static = self.sys.I.copy()

    # -- assembly helpers --------------------------------------------------

    def _base_for_point(self, t: float, *, source_scale: float,
                        gshunt: float) -> "tuple[np.ndarray, np.ndarray]":
        """Static + source + DC reactive stamps at time ``t``."""
        sys = self.sys
        sys.load_from(self._G_static, self._I_static)
        for el in self.source_elements:
            el.stamp_source(sys, t, source_scale)
        for el in self.reactive_elements:
            el.stamp_dc(sys)
        if gshunt > 0.0:
            for i in range(self.n_nodes):
                sys.G[i, i] += gshunt
        return sys.G.copy(), sys.I.copy()

    # -- Newton ---------------------------------------------------------------

    @telemetry.traced(
        "mna.newton",
        tags=lambda self, *_, analysis, **__: {
            "analysis": analysis, "size": self.size})
    def solve_newton(self, x0: Optional[np.ndarray], t: float, *,
                     source_scale: float = 1.0,
                     gshunt: float = 0.0,
                     max_iter: int = NEWTON_MAX_ITER,
                     vlimit: float = NEWTON_VLIMIT,
                     abstol: float = NEWTON_ABSTOL,
                     reltol: float = NEWTON_RELTOL,
                     itol: float = NEWTON_ITOL,
                     analysis: str = "newton") -> np.ndarray:
        """Solve the (possibly nonlinear) DC MNA system at time ``t``.

        Returns the converged solution vector; raises
        :class:`ConvergenceError` when the damped Newton iteration fails.
        """
        rt = telemetry.active()
        G_base, I_base = self._base_for_point(
            t, source_scale=source_scale, gshunt=gshunt)
        x = np.zeros(self.size) if x0 is None else np.asarray(x0, dtype=float).copy()
        has_nonlinear = self.mosfet_group.n > 0 or bool(self.other_nonlinear)
        x_padded = np.zeros(self.size + 1)
        n = self.n_nodes

        for _iteration in range(max_iter):
            G = G_base.copy()
            I = I_base.copy()
            if has_nonlinear:
                x_padded[:-1] = x
                if self.mosfet_group.n:
                    self.mosfet_group.stamp(G, I, x_padded)
                for el in self.other_nonlinear:
                    el.stamp_nonlinear(self.sys_view(G, I), x, t)
            if self._backend is None:
                self._backend = choose_backend(
                    self.size, matrix_fill(G), self.solver)
                if rt is not None:
                    rt.count("repro_mna_backend_decisions_total",
                             solver=self.solver, backend=self._backend)
            try:
                if self._backend == "sparse":
                    x_new = sparse_solve(G, I)
                else:
                    x_new = np.linalg.solve(G, I)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"singular MNA matrix: {exc}", analysis=analysis, time=t
                ) from None
            if not np.all(np.isfinite(x_new)):
                raise ConvergenceError("solution diverged to non-finite values",
                                       analysis=analysis, time=t)
            dx = x_new - x
            if not has_nonlinear:
                if rt is not None:
                    _note_newton(rt, _iteration + 1, self._backend)
                return x_new
            dv = dx[:n]
            clamped = np.abs(dv) > vlimit
            if clamped.any():
                dv = np.clip(dv, -vlimit, vlimit)
                x = x.copy()
                x[:n] += dv
                x[n:] += dx[n:]
                continue
            x = x_new
            v_ok = np.all(np.abs(dv) <= abstol + reltol * np.abs(x_new[:n]))
            i_ok = np.all(
                np.abs(dx[n:]) <= itol + reltol * np.abs(x_new[n:])
            ) if self.size > n else True
            if v_ok and i_ok:
                if rt is not None:
                    _note_newton(rt, _iteration + 1, self._backend)
                return x
        if rt is not None:
            rt.count("repro_mna_convergence_failures_total",
                     analysis=analysis)
        raise ConvergenceError(
            f"Newton failed to converge in {max_iter} iterations",
            analysis=analysis, time=t)

    def sys_view(self, G: np.ndarray, I: np.ndarray) -> MnaSystem:
        """Wrap raw arrays in an :class:`MnaSystem` facade for per-element
        stamping of non-MOSFET nonlinear devices."""
        view = MnaSystem.__new__(MnaSystem)
        view.n_nodes = self.n_nodes
        view.size = self.size
        view.G = G
        view.I = I
        return view

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        points: "list[float]" = []
        for el in self.circuit.flat_elements:
            points.extend(el.breakpoints(t0, t1))
        if not points:
            return np.empty(0)
        arr = np.unique(np.asarray(points))
        # Merge breakpoints closer than a femtosecond: they would force
        # degenerate steps.
        if arr.size > 1:
            keep = np.concatenate(([True], np.diff(arr) > 1e-15))
            arr = arr[keep]
        return arr
