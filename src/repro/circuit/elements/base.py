"""Element base classes and the MNA stamping contract.

Every element belongs to exactly one stamping *category*, which tells the
assembler when its stamps must be refreshed:

``static``
    Pure linear conductances (resistors, fixed controlled sources).
    Stamped once per matrix structure.
``reactive``
    Energy-storage elements (capacitors, inductors).  Open/short in DC;
    the time stepper integrates them with vectorised companion models.
``source``
    Independent sources.  Stamped once per time point.
``nonlinear``
    Devices whose stamps depend on the present solution estimate
    (MOSFETs, switches).  Stamped every Newton iteration.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import NetlistError

GROUND_NAMES = frozenset({"0", "gnd", "vss!", "ground"})

STATIC = "static"
REACTIVE = "reactive"
SOURCE = "source"
NONLINEAR = "nonlinear"


def is_ground(node: str) -> bool:
    """True when ``node`` names the global reference node."""
    return node.lower() in GROUND_NAMES


class Element:
    """A circuit element connected to named nodes.

    Subclasses set :attr:`category`, may request branch-current unknowns
    via :attr:`n_branch_vars`, and implement the stamping method that
    matches their category.
    """

    category: str = STATIC
    n_branch_vars: int = 0

    def __init__(self, name: str, nodes: Sequence[str]):
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = str(name)
        self._node_names: Tuple[str, ...] = tuple(str(n) for n in nodes)
        if not self._node_names:
            raise NetlistError(f"{self.name}: element needs at least one node")
        # Filled in by Circuit.compile():
        self._idx: Tuple[int, ...] = ()
        self._branch: Tuple[int, ...] = ()

    # -- netlist plumbing ------------------------------------------------

    @property
    def node_names(self) -> Tuple[str, ...]:
        return self._node_names

    def bind(self, node_indices: Sequence[int], branch_indices: Sequence[int]) -> None:
        """Receive absolute matrix indices from the compiler.

        Ground maps to index ``-1``; stamping helpers skip it.
        """
        if len(node_indices) != len(self._node_names):
            raise NetlistError(f"{self.name}: bad node binding")
        if len(branch_indices) != self.n_branch_vars:
            raise NetlistError(f"{self.name}: bad branch binding")
        self._idx = tuple(node_indices)
        self._branch = tuple(branch_indices)

    def expand(self) -> "list[Element]":
        """Return the flat element list this element contributes.

        Composite devices (e.g. a MOSFET with its parasitic capacitors)
        override this; simple elements return ``[self]``.
        """
        return [self]

    def clone(self, name: str, nodes: Sequence[str]) -> "Element":
        """Return a copy of this element on different nodes.

        Used by subcircuit instantiation.  Subclasses with constructor
        parameters must override.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support subcircuit cloning"
        )

    def __repr__(self) -> str:
        nodes = ",".join(self._node_names)
        return f"<{type(self).__name__} {self.name} ({nodes})>"

    # -- stamping hooks ----------------------------------------------------

    def stamp_static(self, sys: "MnaSystem") -> None:
        raise NotImplementedError

    def stamp_source(self, sys: "MnaSystem", t: float, scale: float = 1.0) -> None:
        raise NotImplementedError

    def stamp_nonlinear(self, sys: "MnaSystem", x: np.ndarray, t: float) -> None:
        raise NotImplementedError

    def stamp_dc(self, sys: "MnaSystem") -> None:
        """DC-operating-point stamp for reactive elements.

        Capacitors are open circuits (no stamp); inductors override this
        to stamp a short.
        """

    # -- analysis metadata ---------------------------------------------------

    def breakpoints(self, t0: float, t1: float) -> "list[float]":
        """Times in ``(t0, t1]`` where this element has a corner."""
        return []


class MnaSystem:
    """Dense MNA matrix/RHS pair with sign-safe stamping helpers.

    Row/column layout: node voltages first (``0..n_nodes-1``), then
    branch currents.  Ground is index ``-1`` and is skipped by every
    helper.  KCL rows are written as "sum of currents leaving the node
    equals the injection on the RHS".
    """

    __slots__ = ("size", "n_nodes", "G", "I")

    def __init__(self, n_nodes: int, n_branches: int):
        self.n_nodes = n_nodes
        self.size = n_nodes + n_branches
        self.G = np.zeros((self.size, self.size))
        self.I = np.zeros(self.size)

    def clear(self) -> None:
        self.G[:, :] = 0.0
        self.I[:] = 0.0

    def load_from(self, G0: np.ndarray, I0: np.ndarray) -> None:
        """Reset the system to a precomputed base (static stamps)."""
        np.copyto(self.G, G0)
        np.copyto(self.I, I0)

    # -- two-terminal stamps -------------------------------------------------

    def add_conductance(self, a: int, b: int, g: float) -> None:
        """Conductance ``g`` between nodes ``a`` and ``b``."""
        if a >= 0:
            self.G[a, a] += g
        if b >= 0:
            self.G[b, b] += g
        if a >= 0 and b >= 0:
            self.G[a, b] -= g
            self.G[b, a] -= g

    def add_current(self, a: int, b: int, i: float) -> None:
        """Element current ``i`` flowing from node ``a`` to node ``b``."""
        if a >= 0:
            self.I[a] -= i
        if b >= 0:
            self.I[b] += i

    def add_vccs(self, a: int, b: int, cp: int, cn: int, gm: float) -> None:
        """Current ``gm * (v_cp - v_cn)`` flowing from ``a`` to ``b``."""
        if a >= 0:
            if cp >= 0:
                self.G[a, cp] += gm
            if cn >= 0:
                self.G[a, cn] -= gm
        if b >= 0:
            if cp >= 0:
                self.G[b, cp] -= gm
            if cn >= 0:
                self.G[b, cn] += gm

    # -- branch stamps ---------------------------------------------------------

    def stamp_branch_kcl(self, a: int, b: int, br: int) -> None:
        """Couple branch current ``br`` into the KCL rows of ``a``/``b``.

        The branch current is defined as flowing from ``a`` through the
        element to ``b``.
        """
        if a >= 0:
            self.G[a, br] += 1.0
        if b >= 0:
            self.G[b, br] -= 1.0

    def stamp_branch_voltage_row(self, br: int, a: int, b: int) -> None:
        """Write ``v_a - v_b`` into the branch equation row."""
        if a >= 0:
            self.G[br, a] += 1.0
        if b >= 0:
            self.G[br, b] -= 1.0

    def set_branch_rhs(self, br: int, value: float) -> None:
        self.I[br] += value


def node_voltage(x: np.ndarray, idx: int) -> float:
    """Voltage of node ``idx`` in solution vector ``x`` (ground = 0)."""
    return 0.0 if idx < 0 else float(x[idx])


def voltage_between(x: np.ndarray, a: int, b: int) -> float:
    return node_voltage(x, a) - node_voltage(x, b)


class StateDict(Dict[str, float]):
    """Convenience mapping used by results to expose node voltages."""

    def __missing__(self, key: str) -> float:
        raise KeyError(f"no node or branch named {key!r}")
