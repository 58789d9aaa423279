"""Level-1 (Shichman–Hodges) MOSFET model with a smooth subthreshold tail.

The paper's devices are drawn at ``L = 1.2 µm`` in a 65 nm process —
deliberately long-channel, so square-law I–V is the appropriate physics.
To keep the Newton iteration well-behaved and to retain a realistic
(exponential) subthreshold tail for the low-``Vdd`` supply sweeps, the
overdrive voltage is smoothed with an EKV-style softplus::

    vov_eff = 2*n*vT * ln(1 + exp((vgs - vt) / (2*n*vT)))

which converges to ``vgs - vt`` in strong inversion and to an exponential
in weak inversion.  The factor of two compensates the square-law's
squaring of the overdrive, so the weak-inversion current slope is the
textbook ``exp((vgs - vt)/(n*vT))``.  Current and first derivatives are
continuous everywhere.

The module is pure math — no circuit dependencies — so it can be
unit-tested against finite differences in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

#: Thermal voltage at room temperature (300 K), volts.
THERMAL_VOLTAGE = 0.02585

NMOS = "nmos"
PMOS = "pmos"


@dataclass(frozen=True)
class MosfetParams:
    """Technology parameters for one device polarity.

    Attributes
    ----------
    polarity:
        ``"nmos"`` or ``"pmos"``.
    vt0:
        Zero-bias threshold voltage, volts (positive for NMOS, negative
        for PMOS).
    kp:
        Transconductance parameter ``µ·Cox``, A/V².
    lam:
        Channel-length modulation, 1/V.
    n_sub:
        Subthreshold slope factor (dimensionless, ≥ 1).
    cox:
        Gate-oxide capacitance per area, F/m².
    cgso, cgdo:
        Gate-source/drain overlap capacitance per metre of width, F/m.
    cj_per_w:
        Junction (drain/source to bulk) capacitance per metre of width,
        F/m.
    """

    polarity: str
    vt0: float
    kp: float
    lam: float = 0.0
    n_sub: float = 1.5
    cox: float = 0.0
    cgso: float = 0.0
    cgdo: float = 0.0
    cj_per_w: float = 0.0
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.polarity not in (NMOS, PMOS):
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}")
        if self.kp <= 0:
            raise ValueError("kp must be positive")
        if self.polarity == NMOS and self.vt0 < 0:
            raise ValueError("NMOS vt0 must be non-negative")
        if self.polarity == PMOS and self.vt0 > 0:
            raise ValueError("PMOS vt0 must be non-positive")
        if self.n_sub < 1.0:
            raise ValueError("subthreshold slope factor must be >= 1")

    @property
    def sign(self) -> float:
        """+1 for NMOS, -1 for PMOS."""
        return 1.0 if self.polarity == NMOS else -1.0

    def scaled(self, **changes) -> "MosfetParams":
        """Return a copy with selected parameters replaced."""
        return replace(self, **changes)


def _softplus(x: float, scale: float) -> Tuple[float, float]:
    """Return ``(scale*ln(1+exp(x/scale)), sigmoid(x/scale))``.

    Numerically safe for large ``|x|``.
    """
    z = x / scale
    if z > 35.0:
        ez = math.exp(-z)
        return x + scale * math.log1p(ez), 1.0 / (1.0 + ez)
    if z < -35.0:
        ez = math.exp(z)
        return scale * ez, ez
    e = math.exp(z)
    return scale * math.log1p(e), e / (1.0 + e)


def ids_forward(vgs: float, vds: float, beta: float, vt: float, lam: float,
                n_sub: float) -> Tuple[float, float, float]:
    """Drain current and derivatives for ``vds >= 0`` (NMOS frame).

    Parameters are the *effective* gate-source and drain-source voltages
    and ``beta = kp * W / L``.  Returns ``(id, gm, gds)``.
    """
    scale = 2.0 * n_sub * THERMAL_VOLTAGE
    vov, dvov = _softplus(vgs - vt, scale)
    clm = 1.0 + lam * vds
    if vds < vov:
        # Triode region.
        core = vov * vds - 0.5 * vds * vds
        ids = beta * core * clm
        gm = beta * vds * clm * dvov
        gds = beta * ((vov - vds) * clm + core * lam)
    else:
        # Saturation.
        core = 0.5 * vov * vov
        ids = beta * core * clm
        gm = beta * vov * clm * dvov
        gds = beta * core * lam
    return ids, gm, gds


def ids_full(vd: float, vg: float, vs: float, params: MosfetParams,
             width: float, length: float) -> Tuple[float, float, float]:
    """Drain current into the drain terminal plus small-signal conductances.

    Handles both polarities and source/drain swap (the device is
    symmetric).  Returns ``(id, gm, gds)`` where the derivatives are with
    respect to the *actual* ``vgs`` and ``vds`` (not the internal
    polarity-flipped frame), so they can be stamped directly.
    """
    if width <= 0 or length <= 0:
        raise ValueError("MOSFET width and length must be positive")
    sign = params.sign
    beta = params.kp * width / length
    vt = abs(params.vt0)
    vgs = sign * (vg - vs)
    vds = sign * (vd - vs)
    if vds >= 0.0:
        ids_e, gm_e, gds_e = ids_forward(vgs, vds, beta, vt, params.lam,
                                         params.n_sub)
    else:
        # Swap source and drain: the terminal at lower (effective)
        # potential acts as the source.
        vgd = vgs - vds
        ids_r, gm_r, gds_r = ids_forward(vgd, -vds, beta, vt, params.lam,
                                         params.n_sub)
        ids_e = -ids_r
        gm_e = -gm_r
        gds_e = gm_r + gds_r
    # Map back to the actual frame: currents flip with polarity, the
    # conductances are invariant (two sign flips cancel).
    return sign * ids_e, gm_e, gds_e


def gate_capacitances(params: MosfetParams, width: float,
                      length: float) -> Tuple[float, float, float]:
    """Constant effective ``(Cgs, Cgd, Cj)`` for the device geometry.

    Saturation-regime Meyer values are used as constants: two thirds of
    the channel charge on the gate-source capacitor, and *overlap only*
    on the gate-drain capacitor.  A 50/50 split would pin half the
    channel charge on Cgd permanently, wildly overstating Miller
    coupling for these long-channel devices (a digital gate spends its
    switching time in saturation/cutoff, where BSIM's Cgd is essentially
    the overlap term).  Documented in DESIGN.md.
    """
    c_channel = params.cox * width * length
    cgs = (2.0 / 3.0) * c_channel + params.cgso * width
    cgd = params.cgdo * width
    cj = params.cj_per_w * width
    return cgs, cgd, cj


def ids_full_vec(vd, vg, vs, sign, beta, vt, lam, n_sub):
    """Vectorised :func:`ids_full` over arrays of devices.

    All arguments are numpy arrays of equal length; ``sign`` is +1/-1 per
    device, ``vt`` is the threshold magnitude.  Returns ``(id, gm, gds)``
    arrays with the same conventions as :func:`ids_full`.  This is the
    hot path of the transient engine, so it avoids Python-level loops.

    It needs numpy alone.  The sigmoid ``dvov`` uses numpy's
    CPU-dispatched ``exp``, so ``gm`` (and ``gds`` on a reversed device,
    which adds ``gm``) may differ between hosts by a few ulp; ``id``
    does not use it.
    """
    vgs = sign * (vg - vs)
    vds = sign * (vd - vs)
    reverse = vds < 0.0
    swapped = np.count_nonzero(reverse) > 0
    if swapped:
        # Work in the forward frame for every device.  ``flip`` is
        # exactly -1 on reversed devices and +1 elsewhere, so
        # multiplying by it negates or keeps a value bit for bit
        # (``abs`` would turn a PMOS ``vds`` of -0.0 into +0.0 and flip
        # the sign of a zero current).
        flip = np.where(reverse, -1.0, 1.0)
        vgs = np.where(reverse, vgs - vds, vgs)
        vds = vds * flip
    scale = 2.0 * n_sub * THERMAL_VOLTAGE
    z = (vgs - vt) / scale
    # logaddexp is overflow-safe for any z.  The sigmoid's exp(-z)
    # overflows to inf (numpy warns) only below z = -709, about 55 V
    # under threshold, where the exact dvov is below 1e-308 anyway.
    vov = scale * np.logaddexp(0.0, z)
    dvov = 1.0 / (1.0 + np.exp(-z))
    clm = 1.0 + lam * vds
    triode = vds < vov
    core_tri = vov * vds - 0.5 * vds * vds
    core_sat = 0.5 * vov * vov
    ids = beta * np.where(triode, core_tri, core_sat) * clm
    # gm is beta * (vds in triode, vov in saturation) * clm * dvov.
    gm = beta * np.where(triode, vds, vov) * clm * dvov
    gds = np.where(triode, beta * ((vov - vds) * clm + core_tri * lam),
                   beta * core_sat * lam)
    if not swapped:
        # Undoing the swap would multiply by +1.0: no bit changes.
        return sign * ids, gm, gds
    # Undo the source/drain swap.
    return (sign * (ids * flip), gm * flip,
            np.where(reverse, gm + gds, gds))


def on_resistance(params: MosfetParams, width: float, length: float,
                  vgs: float, vds_probe: float = 0.01) -> float:
    """Small-signal on-resistance at ``|vds| ≈ 0`` for a given drive.

    Used by sizing helpers and the switch-level RC engine.
    """
    sign = params.sign
    ids, _gm, _gds = ids_full(sign * vds_probe, sign * vgs, 0.0, params,
                              width, length)
    if ids == 0.0:
        return float("inf")
    return abs(vds_probe / ids)


def on_resistance_vec(beta, vt_mag, lam, n_sub, vgs,
                      vds_probe: float = 0.01):
    """Vectorised :func:`on_resistance` over arrays of devices.

    ``beta = kp * W / L`` and ``vt_mag = |vt0|`` may carry per-device
    mismatch; ``lam``/``n_sub``/``vgs`` broadcast.  Because the probe
    point maps both polarities onto the forward (NMOS) frame with
    ``vds = vds_probe >= 0``, one square-law evaluation covers NMOS and
    PMOS alike.  This is the Monte-Carlo batching hot path
    (:mod:`repro.exec.batch`): one call replaces thousands of scalar
    :func:`ids_full` evaluations.
    """
    scale = 2.0 * n_sub * THERMAL_VOLTAGE
    z = (np.asarray(vgs, float) - np.asarray(vt_mag, float)) / scale
    vov = scale * np.logaddexp(0.0, z)
    clm = 1.0 + lam * vds_probe
    triode = vds_probe < vov
    core = np.where(triode, vov * vds_probe - 0.5 * vds_probe * vds_probe,
                    0.5 * vov * vov)
    ids = np.asarray(beta, float) * core * clm
    with np.errstate(divide="ignore"):
        return np.where(ids == 0.0, np.inf, np.abs(vds_probe / ids))
