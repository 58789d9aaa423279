"""Linear passive elements: resistor, capacitor, inductor."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import NetlistError
from ..units import Quantity, parse_quantity
from .base import (
    REACTIVE,
    STATIC,
    Element,
    MnaSystem,
    voltage_between,
)


class Resistor(Element):
    """Ideal linear resistor.

    >>> Resistor("R1", "a", "b", "100k").resistance
    100000.0
    """

    category = STATIC

    def __init__(self, name: str, a: str, b: str, resistance: Quantity):
        super().__init__(name, (a, b))
        self.resistance = parse_quantity(resistance)
        if self.resistance <= 0:
            raise NetlistError(f"{name}: resistance must be positive")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def clone(self, name: str, nodes: Sequence[str]) -> "Resistor":
        return Resistor(name, nodes[0], nodes[1], self.resistance)

    def stamp_static(self, sys: MnaSystem) -> None:
        a, b = self._idx
        sys.add_conductance(a, b, self.conductance)

    def current(self, x: np.ndarray) -> float:
        """Current flowing a→b for solution ``x``."""
        return voltage_between(x, *self._idx) * self.conductance


class Capacitor(Element):
    """Ideal linear capacitor integrated with BE or trapezoidal companions.

    Transient runs use the lock-step stepper's vectorised companions
    (``_BatchCapacitors``); the per-element companion methods below are
    the reference those are pinned against, lane by lane.
    """

    category = REACTIVE

    def __init__(self, name: str, a: str, b: str, capacitance: Quantity,
                 ic: "float | None" = None):
        super().__init__(name, (a, b))
        self.capacitance = parse_quantity(capacitance)
        if self.capacitance < 0:
            raise NetlistError(f"{name}: capacitance must be non-negative")
        #: Optional per-element initial voltage override.
        self.ic = None if ic is None else float(ic)
        self._v_prev = 0.0
        self._i_prev = 0.0

    def clone(self, name: str, nodes: Sequence[str]) -> "Capacitor":
        return Capacitor(name, nodes[0], nodes[1], self.capacitance, ic=self.ic)

    # -- state ------------------------------------------------------------

    def init_state(self, x: np.ndarray) -> None:
        self._v_prev = voltage_between(x, *self._idx)
        if self.ic is not None:
            self._v_prev = self.ic
        self._i_prev = 0.0

    def stamp_reactive(self, sys: MnaSystem, dt: float, method: str) -> None:
        a, b = self._idx
        if self.capacitance == 0.0:
            return
        if method == "be":
            geq = self.capacitance / dt
            ieq = -geq * self._v_prev
        else:  # trapezoidal
            geq = 2.0 * self.capacitance / dt
            ieq = -geq * self._v_prev - self._i_prev
        sys.add_conductance(a, b, geq)
        sys.add_current(a, b, ieq)

    def accept_step(self, x: np.ndarray, dt: float, method: str) -> None:
        v_new = voltage_between(x, *self._idx)
        if self.capacitance == 0.0:
            self._v_prev = v_new
            self._i_prev = 0.0
            return
        if method == "be":
            i_new = (self.capacitance / dt) * (v_new - self._v_prev)
        else:
            geq = 2.0 * self.capacitance / dt
            i_new = geq * (v_new - self._v_prev) - self._i_prev
        self._v_prev = v_new
        self._i_prev = i_new


class Inductor(Element):
    """Ideal linear inductor.  Uses a branch-current unknown.

    Transient runs integrate it through the lock-step stepper's
    vectorised companions (``_BatchInductors``).
    """

    category = REACTIVE
    n_branch_vars = 1

    def __init__(self, name: str, a: str, b: str, inductance: Quantity,
                 ic: "float | None" = None):
        super().__init__(name, (a, b))
        self.inductance = parse_quantity(inductance)
        if self.inductance < 0:
            raise NetlistError(f"{name}: inductance must be non-negative")
        #: Optional initial current override (amps, flowing a→b).
        self.ic = None if ic is None else float(ic)

    def clone(self, name: str, nodes: Sequence[str]) -> "Inductor":
        return Inductor(name, nodes[0], nodes[1], self.inductance, ic=self.ic)

    def stamp_dc(self, sys: MnaSystem) -> None:
        """DC behaviour: a short circuit (zero-volt branch)."""
        a, b = self._idx
        br = self._branch[0]
        sys.stamp_branch_kcl(a, b, br)
        sys.stamp_branch_voltage_row(br, a, b)
