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

from .._lazy import lazy_package

#: Each export's submodule.  Names load on first access, so importing
#: one light module (``repro.circuit.exceptions`` from the serving
#: stack) does not load the MNA stepper, PSS, AC or sparse code.
_LAZY = {name: module for module, names in {
    "ac": ("AcPoint", "AcResult", "ac_analysis"),
    "batch_transient": ("BatchPssResult", "BatchTransientResult",
                        "BatchTransientSolver", "shooting_batch",
                        "shooting_jacobian_batched"),
    "dc": ("OpPoint", "dc_sweep", "operating_point"),
    "elements": ("Capacitor", "ModulatedVoltage", "Element", "Idc",
                 "Inductor", "IProfile", "Mosfet", "MnaSystem",
                 "PwmVoltage", "Resistor", "Vccs", "Vcvs", "Vdc",
                 "VoltageSource", "VProfile", "Vpulse", "Vpwl", "Vsin",
                 "VSwitch"),
    "exceptions": ("AnalysisError", "CircuitError", "ConvergenceError",
                   "NetlistError", "SingularMatrixError", "UnitError"),
    "measure": ("flatness", "linear_fit", "max_linearity_error",
                "r_squared", "relative_error"),
    "mna": ("MnaContext",),
    "netlist": ("Circuit", "SubCircuit"),
    "pss": ("PssResult", "settle_average", "shooting"),
    "sparse": ("HAS_SCIPY", "SOLVERS", "check_solver", "choose_backend"),
    "spice_export": ("to_spice", "write_spice"),
    # ``transient`` names both the submodule and its function; the
    # package attribute stays the function (see repro._lazy).
    "transient": ("TransientResult", "transient"),
    "units": ("format_quantity", "parse_quantity"),
    "waveform": ("Waveform", "concatenate"),
}.items() for name in names}

__all__ = list(_LAZY)

lazy_package(__name__)
