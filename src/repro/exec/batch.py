"""Vectorised Monte-Carlo batching for the switch-level adder engine.

A mismatch campaign perturbs every cell's devices in every trial.  This
module flattens a whole campaign into numpy arrays:

1. :func:`sample_adder_mismatch` draws every trial's device mismatch in
   **one** RNG call, in the order a per-trial draw would consume the
   generator (trial, bank, cell, NMOS then PMOS);
2. :func:`leg_resistance_arrays` converts the perturbed device
   parameters into ``(B, L)`` pull-up/pull-down resistance arrays with
   the vectorised square-law model
   (:func:`repro.tech.mosfet_models.on_resistance_vec`);
3. :func:`batch_adder_values` feeds those arrays through
   :class:`~repro.core.rc_model.RcBatchSolver` — one vectorised periodic
   solve for the whole batch.

``tests/test_exec_engine.py`` pins campaigns against recorded
per-trial reference results (``rtol=1e-9``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..core.encoding import check_duties, check_weights
from ..core.rc_model import RcBatchSolver
from ..tech.corners import MonteCarloSampler
from ..tech.mosfet_models import on_resistance_vec


def resolve_solver(solver: str, *, engine_id: str = "spice",
                   experiment_id: str = "") -> str:
    """Resolve an MNA ``solver`` knob against the engine registry.

    The knob only means something for engines that assemble MNA systems
    (``level == "transistor"``): for those the spelling is validated by
    :func:`repro.circuit.sparse.check_solver` and passed through.  For
    behavioural/switch-level engines an explicit non-default backend is
    an error (there is no matrix to pick a backend for), while the
    default ``"auto"`` passes silently so generic callers need no
    per-engine special cases.

    ``experiment_id`` names the offending experiment in rejections, the
    same error surface as
    :func:`repro.engines.base.require_capability`.
    """
    from ..circuit.sparse import check_solver
    from ..engines import get_engine

    who = f"experiment {experiment_id!r}: " if experiment_id else ""
    try:
        resolved = check_solver(solver)
        level = get_engine(engine_id).capabilities().level
    except AnalysisError as exc:
        if who:
            raise AnalysisError(f"{who}{exc}") from None
        raise
    if level != "transistor" and resolved != "auto":
        raise AnalysisError(
            f"{who}solver {resolved!r} only applies to transistor-level "
            f"engines; engine {engine_id!r} (level {level!r}) has no "
            "MNA system to solve")
    return resolved


@dataclass(frozen=True)
class MismatchBatch:
    """Per-trial, per-cell device mismatch for one cell bank.

    All arrays have shape ``(..., n_cells)`` with cells in flat
    ``i * n_bits + b`` order — the same indexing as the scalar
    ``cell_overrides`` hook.
    """

    delta_vt_n: np.ndarray
    kp_scale_n: np.ndarray
    delta_vt_p: np.ndarray
    kp_scale_p: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.delta_vt_n.shape[-1]


def _cell_geometry(config) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Per-leg ``(wn, wp, rout_eff)`` arrays in flat cell order.

    Built from :meth:`CellDesign.scaled` so the binary-weighted sizing
    rule lives in exactly one place (``WeightedAdder.rc_legs`` uses the
    same designs).
    """
    designs = [config.cell.scaled(float(1 << b))
               for _i in range(config.n_inputs)
               for b in range(config.n_bits)]
    wn = np.array([d.wn for d in designs])
    wp = np.array([d.wp for d in designs])
    rout = np.array([d.rout_eff for d in designs])
    return wn, wp, rout


def sample_adder_mismatch(sampler: MonteCarloSampler, config,
                          n_trials: int, *,
                          banks: int = 1) -> "list[MismatchBatch]":
    """Draw mismatch for ``n_trials`` trials (and ``banks`` cell banks).

    The RNG is consumed per trial (and per bank): for each flat cell,
    NMOS ``(delta_vt, kp)`` then PMOS ``(delta_vt, kp)`` — the same draws
    as one :meth:`MonteCarloSampler.sample` call per device in that
    order.
    """
    if n_trials < 1:
        raise AnalysisError("need at least one trial")
    wn, wp, _rout = _cell_geometry(config)
    n_cells = wn.shape[0]
    # Device draw order: (trial, bank, cell, nmos-then-pmos).
    widths = np.empty((n_trials, banks, n_cells, 2))
    widths[..., 0] = wn
    widths[..., 1] = wp
    lengths = np.full_like(widths, config.cell.length)
    delta_vt, kp_scale = sampler.sample_batch(widths, lengths)
    return [
        MismatchBatch(
            delta_vt_n=delta_vt[:, bank, :, 0],
            kp_scale_n=kp_scale[:, bank, :, 0],
            delta_vt_p=delta_vt[:, bank, :, 1],
            kp_scale_p=kp_scale[:, bank, :, 1])
        for bank in range(banks)
    ]


def leg_resistance_arrays(config, mismatch: Optional[MismatchBatch], vdd,
                          *, batch: Optional[int] = None
                          ) -> "Tuple[np.ndarray, np.ndarray]":
    """Pull-up / pull-down resistances, shape ``(B, n_cells)``.

    ``vdd`` may be a scalar (shared supply) or a ``(B,)`` array (one
    supply per trial, e.g. a harvester draw per classification).  With
    ``mismatch=None`` the nominal design is replicated across the batch
    (``batch`` gives B, default 1).
    """
    wn, wp, rout = _cell_geometry(config)
    nmos, pmos = config.cell.nmos, config.cell.pmos
    length = config.cell.length
    vdd = np.asarray(vdd, float)
    if mismatch is None:
        b = int(batch) if batch is not None else (
            vdd.shape[0] if vdd.ndim else 1)
        zeros = np.zeros((b, wn.shape[0]))
        mismatch = MismatchBatch(zeros, zeros + 1.0, zeros, zeros + 1.0)
    vgs = vdd[:, None] if vdd.ndim else vdd
    vt_n = np.abs(nmos.vt0 + mismatch.delta_vt_n)
    beta_n = nmos.kp * mismatch.kp_scale_n * wn / length
    r_down = on_resistance_vec(beta_n, vt_n, nmos.lam, nmos.n_sub,
                               vgs) + rout
    vt_p = np.abs(pmos.vt0 - mismatch.delta_vt_p)
    beta_p = pmos.kp * mismatch.kp_scale_p * wp / length
    r_up = on_resistance_vec(beta_p, vt_p, pmos.lam, pmos.n_sub,
                             vgs) + rout
    return r_up, r_down


@dataclass(frozen=True)
class BatchAdderValues:
    """Vectorised counterpart of :class:`~repro.core.weighted_adder.AdderResult`."""

    value: np.ndarray
    ripple: np.ndarray
    power: np.ndarray


def batch_adder_values(config, duties: Sequence[float],
                       weights: Sequence[int], r_up: np.ndarray,
                       r_down: np.ndarray, vdd) -> BatchAdderValues:
    """Evaluate the adder for a batch of resistance sets in one solve.

    ``duties``/``weights`` are shared across the batch (the Monte-Carlo
    structure: stimulus fixed, devices perturbed); ``vdd`` is a scalar
    or per-element array and sets both the up rail and the PWM gate
    drive already baked into ``r_up``/``r_down``.
    """
    duties = check_duties(duties)
    weights = check_weights(weights, config.n_bits)
    if len(duties) != config.n_inputs or len(weights) != config.n_inputs:
        raise AnalysisError(
            f"expected {config.n_inputs} duties and weights, got "
            f"{len(duties)}/{len(weights)}")
    duty = np.array([
        duties[i] if (weights[i] >> b) & 1 else 0.0
        for i in range(config.n_inputs) for b in range(config.n_bits)])
    phase = np.zeros_like(duty)
    solver = RcBatchSolver(duty, phase, r_up, r_down, v_up=vdd,
                           cout=config.cout, period=config.period)
    sol = solver.solve()
    return BatchAdderValues(value=sol.average_voltage(), ripple=sol.ripple(),
                            power=sol.supply_power())
