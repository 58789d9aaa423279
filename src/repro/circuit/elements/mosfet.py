"""MOSFET circuit element (nonlinear) with constant parasitic capacitors.

The element itself is purely resistive-nonlinear; its gate and junction
capacitances are expanded into ordinary linear :class:`Capacitor`
sub-elements at compile time, so the transient/PSS machinery treats them
uniformly.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ...tech.mosfet_models import MosfetParams, gate_capacitances, ids_full
from ..exceptions import NetlistError
from ..units import Quantity, parse_quantity
from .base import NONLINEAR, Element, MnaSystem, node_voltage
from .passives import Capacitor

#: Minimum drain-source shunt conductance for Newton robustness, siemens.
GMIN_DS = 1e-12


class Mosfet(Element):
    """Level-1 MOSFET between ``(drain, gate, source)``.

    The bulk terminal is tied to the source internally (the perceptron
    cells tie NMOS bulks to ground and PMOS bulks to the supply, which is
    electrically the source in every cell used here); body effect is
    therefore not modelled, as recorded in DESIGN.md.
    """

    category = NONLINEAR

    def __init__(self, name: str, drain: str, gate: str, source: str, *,
                 model: MosfetParams, w: Quantity, l: Quantity,
                 include_caps: bool = True):
        super().__init__(name, (drain, gate, source))
        self.model = model
        self.width = parse_quantity(w)
        self.length = parse_quantity(l)
        if self.width <= 0 or self.length <= 0:
            raise NetlistError(f"{name}: W and L must be positive")
        self.include_caps = include_caps

    def clone(self, name: str, nodes: Sequence[str]) -> "Mosfet":
        return Mosfet(name, nodes[0], nodes[1], nodes[2], model=self.model,
                      w=self.width, l=self.length,
                      include_caps=self.include_caps)

    def expand(self) -> List[Element]:
        elements: List[Element] = [self]
        if not self.include_caps:
            return elements
        d, g, s = self._node_names
        cgs, cgd, cj = gate_capacitances(self.model, self.width, self.length)
        if cgs > 0:
            elements.append(Capacitor(f"{self.name}.cgs", g, s, cgs))
        if cgd > 0:
            elements.append(Capacitor(f"{self.name}.cgd", g, d, cgd))
        if cj > 0:
            # Junction capacitance to the bulk, which is tied to the
            # source terminal here.
            elements.append(Capacitor(f"{self.name}.cj", d, s, cj))
        return elements

    def stamp_nonlinear(self, sys: MnaSystem, x: np.ndarray, t: float) -> None:
        d, g, s = self._idx
        vd = node_voltage(x, d)
        vg = node_voltage(x, g)
        vs = node_voltage(x, s)
        ids, gm, gds = ids_full(vd, vg, vs, self.model, self.width, self.length)
        vgs = vg - vs
        vds = vd - vs
        # Linearised drain current: ids ~= gm*vgs + gds*vds + ieq.
        ieq = ids - gm * vgs - gds * vds
        sys.add_vccs(d, s, g, s, gm)
        sys.add_conductance(d, s, gds + GMIN_DS)
        sys.add_current(d, s, ieq)
