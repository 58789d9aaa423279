"""Small-signal AC analysis.

Linearises the circuit at its DC operating point (MOSFETs become
gm/gds + their capacitances, which are already linear elements here) and
solves the complex MNA system ``(G + j*omega*C) x = b`` over a frequency
grid.  Used to characterise the averaging node's low-pass corner and the
cell's supply rejection — quantities the paper reasons about implicitly
through its RC time constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .dc import OpPoint, operating_point
from .elements.base import NONLINEAR, REACTIVE, SOURCE, MnaSystem
from .elements.mosfet import GMIN_DS, Mosfet
from .elements.passives import Capacitor, Inductor
from .elements.sources import VoltageSource
from .exceptions import AnalysisError
from .mna import MnaContext
from .netlist import Circuit
from ..tech.mosfet_models import ids_full


@dataclass(frozen=True)
class AcPoint:
    """Complex response at one frequency."""

    frequency: float
    value: complex

    @property
    def magnitude(self) -> float:
        return float(abs(self.value))

    @property
    def phase_deg(self) -> float:
        return float(np.degrees(np.angle(self.value)))


class AcResult:
    """Frequency response ``output(f) / stimulus``."""

    def __init__(self, points: List[AcPoint]):
        if not points:
            raise AnalysisError("AC analysis produced no points")
        self.points = points

    @property
    def frequencies(self) -> np.ndarray:
        return np.asarray([p.frequency for p in self.points])

    @property
    def magnitudes(self) -> np.ndarray:
        return np.asarray([p.magnitude for p in self.points])

    def corner_frequency(self) -> float:
        """First -3 dB point relative to the lowest-frequency magnitude.

        Interpolated on a log-frequency grid; ``inf`` when the response
        never drops 3 dB inside the sweep.
        """
        mags = self.magnitudes
        ref = mags[0]
        if ref == 0:
            raise AnalysisError("zero reference magnitude")
        target = ref / np.sqrt(2.0)
        below = np.nonzero(mags <= target)[0]
        if below.size == 0:
            return float("inf")
        i = int(below[0])
        if i == 0:
            return float(self.frequencies[0])
        f0, f1 = self.frequencies[i - 1], self.frequencies[i]
        m0, m1 = mags[i - 1], mags[i]
        # log-linear interpolation
        frac = (m0 - target) / (m0 - m1) if m0 != m1 else 0.0
        return float(10 ** (np.log10(f0) + frac * (np.log10(f1) - np.log10(f0))))


def _stamp_linearised(ctx: MnaContext, sys_G: np.ndarray,
                      op_x: np.ndarray) -> None:
    """Stamp the small-signal conductances of all nonlinear devices."""
    group = ctx.mosfet_group
    if group.n == 0 and not ctx.other_nonlinear:
        return
    view = ctx.sys_view(sys_G, np.zeros(ctx.size))
    for device in group.devices:
        d, g, s = device._idx
        vd = 0.0 if d < 0 else op_x[d]
        vg = 0.0 if g < 0 else op_x[g]
        vs = 0.0 if s < 0 else op_x[s]
        _ids, gm, gds = ids_full(vd, vg, vs, device.model, device.width,
                                 device.length)
        view.add_vccs(d, s, g, s, gm)
        view.add_conductance(d, s, gds + GMIN_DS)
    for el in ctx.other_nonlinear:
        el.stamp_nonlinear(view, op_x, 0.0)


def ac_analysis(circuit: Circuit, frequencies: Sequence[float], *,
                stimulus: str, output: str,
                op: Optional[OpPoint] = None) -> AcResult:
    """Frequency response from ``stimulus`` (a voltage source, driven
    with a unit AC amplitude) to the voltage of node ``output``.

    All other independent sources are AC-grounded (their DC values only
    set the operating point), exactly as in SPICE ``.AC``.
    """
    circuit.compile()
    freqs = [float(f) for f in frequencies]
    if not freqs or any(f <= 0 for f in freqs):
        raise AnalysisError("AC analysis needs positive frequencies")
    source = circuit.element(stimulus)
    if not isinstance(source, VoltageSource):
        raise AnalysisError(f"{stimulus!r} is not a voltage source")
    out_idx = circuit.node_index(output)
    if out_idx < 0:
        raise AnalysisError("cannot probe the ground node")

    ctx = MnaContext(circuit)
    if op is None:
        op = operating_point(circuit, ctx=ctx)

    n = circuit.size
    # Real part: static stamps + source branch rows + linearised devices.
    G = ctx._G_static.copy()
    view = ctx.sys_view(G, np.zeros(n))
    for el in ctx.source_elements:
        if isinstance(el, VoltageSource):
            a, b = el._idx
            br = el._branch[0]
            view.stamp_branch_kcl(a, b, br)
            view.stamp_branch_voltage_row(br, a, b)
        # Current sources: AC-open (no stamp).
    for el in ctx.reactive_elements:
        if isinstance(el, Inductor):
            a, b = el._idx
            br = el._branch[0]
            view.stamp_branch_kcl(a, b, br)
            view.stamp_branch_voltage_row(br, a, b)
    _stamp_linearised(ctx, G, op.x)

    # Imaginary part: capacitor and inductor reactances.
    C = np.zeros((n, n))
    cview = ctx.sys_view(C, np.zeros(n))
    L_diag: List = []
    for el in ctx.reactive_elements:
        if isinstance(el, Capacitor) and el.capacitance > 0:
            a, b = el._idx
            cview.add_conductance(a, b, el.capacitance)
        elif isinstance(el, Inductor):
            L_diag.append((el._branch[0], el.inductance))

    # RHS: unit AC voltage on the stimulus branch.
    b_vec = np.zeros(n, dtype=complex)
    b_vec[source.branch_index] = 1.0

    points: List[AcPoint] = []
    for f in freqs:
        omega = 2.0 * np.pi * f
        A = G.astype(complex) + 1j * omega * C
        for br, inductance in L_diag:
            A[br, br] -= 1j * omega * inductance
        try:
            x = np.linalg.solve(A, b_vec)
        except np.linalg.LinAlgError as exc:
            raise AnalysisError(f"singular AC system at {f:.4g} Hz: {exc}")
        points.append(AcPoint(frequency=f, value=complex(x[out_idx])))
    return AcResult(points)
