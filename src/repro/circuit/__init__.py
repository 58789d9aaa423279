"""SPICE-class analog circuit simulation substrate.

This package is the executable replacement for the Cadence Analog Design
Environment used in the paper: netlists of MOSFETs, passives and sources,
solved with modified nodal analysis — DC operating point, transient, and
shooting-method periodic steady state.

Quick example::

    from repro.circuit import Circuit, Vdc, Resistor, Capacitor, transient

    c = Circuit("rc")
    c.add(Vdc("V1", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "out", "1k"))
    c.add(Capacitor("C1", "out", "0", "1u"))
    result = transient(c, tstop=5e-3, dt=1e-5, ic={"out": 0.0})
    print(result.node("out").value_at(1e-3))
"""

from .ac import AcPoint, AcResult, ac_analysis
from .batch_transient import (
    BatchPssResult,
    BatchTransientResult,
    BatchTransientSolver,
    shooting_batch,
    shooting_jacobian_batched,
)
from .dc import OpPoint, dc_sweep, operating_point
from .elements import (
    Capacitor,
    ModulatedVoltage,
    Element,
    Idc,
    Inductor,
    IProfile,
    Mosfet,
    MnaSystem,
    PwmVoltage,
    Resistor,
    Vccs,
    Vcvs,
    Vdc,
    VoltageSource,
    VProfile,
    Vpulse,
    Vpwl,
    Vsin,
    VSwitch,
)
from .exceptions import (
    AnalysisError,
    CircuitError,
    ConvergenceError,
    NetlistError,
    SingularMatrixError,
    UnitError,
)
from .measure import (
    flatness,
    linear_fit,
    max_linearity_error,
    r_squared,
    relative_error,
)
from .mna import MnaContext
from .netlist import Circuit, SubCircuit
from .pss import PssResult, settle_average, shooting
from .sparse import HAS_SCIPY, SOLVERS, check_solver, choose_backend
from .spice_export import to_spice, write_spice
from .transient import TransientResult, transient
from .units import format_quantity, parse_quantity
from .waveform import Waveform, concatenate

__all__ = [
    # containers
    "Circuit", "SubCircuit",
    # elements
    "Element", "MnaSystem", "Resistor", "Capacitor", "Inductor",
    "Vdc", "Vpulse", "PwmVoltage", "Vsin", "Vpwl", "VProfile",
    "ModulatedVoltage",
    "VoltageSource", "Idc", "IProfile", "Mosfet", "VSwitch", "Vcvs", "Vccs",
    # analyses
    "operating_point", "dc_sweep", "OpPoint", "MnaContext",
    "ac_analysis", "AcResult", "AcPoint",
    "transient", "TransientResult",
    "BatchTransientSolver", "BatchTransientResult", "shooting_batch",
    "BatchPssResult", "shooting_jacobian_batched",
    "shooting", "settle_average", "PssResult",
    "HAS_SCIPY", "SOLVERS", "check_solver", "choose_backend",
    "to_spice", "write_spice",
    # measurements
    "Waveform", "concatenate", "flatness", "linear_fit",
    "max_linearity_error", "r_squared", "relative_error",
    # units & errors
    "parse_quantity", "format_quantity",
    "CircuitError", "UnitError", "NetlistError", "ConvergenceError",
    "SingularMatrixError", "AnalysisError",
]
