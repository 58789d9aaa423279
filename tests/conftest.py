"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.circuit import Capacitor, Circuit, Mosfet, PwmVoltage, Resistor, Vdc
from repro.tech import NMOS_UMC65, PMOS_UMC65, TABLE1_SIZING


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long re-runs, deselected unless selected with "
        "-m slow")


def pytest_collection_modifyitems(config, items):
    """Tier-1 (no ``-m`` expression) deselects the slow-marked tests."""
    if config.option.markexpr:
        return
    slow = [item for item in items if item.get_closest_marker("slow")]
    if slow:
        config.hook.pytest_deselected(items=slow)
        items[:] = [item for item in items
                    if not item.get_closest_marker("slow")]


@pytest.fixture
def rc_circuit() -> Circuit:
    """1 V step into a 1k/1u RC (tau = 1 ms)."""
    c = Circuit("rc")
    c.add(Vdc("V1", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "out", "1k"))
    c.add(Capacitor("C1", "out", "0", "1u"))
    return c


def make_transcoding_inverter(duty: float, *, vdd: float = 2.5,
                              frequency: float = 500e6,
                              rout: "float | None" = 100e3,
                              cout: float = 1e-12,
                              amplitude: "float | None" = None) -> Circuit:
    """Paper Fig. 2 cell: inverter + Rout + Cout driven by a PWM source."""
    c = Circuit("transcoding_inverter")
    c.add(Vdc("VDD", "vdd", "0", vdd))
    c.add(PwmVoltage("VIN", "in", "0", v_high=amplitude or vdd,
                     frequency=frequency, duty=duty))
    c.add(Mosfet("MP", "drain", "in", "vdd", model=PMOS_UMC65,
                 w=TABLE1_SIZING.pmos_width, l=TABLE1_SIZING.length))
    c.add(Mosfet("MN", "drain", "in", "0", model=NMOS_UMC65,
                 w=TABLE1_SIZING.nmos_width, l=TABLE1_SIZING.length))
    if rout is None:
        c.add(Resistor("ROUT", "drain", "out", 1.0))  # effectively a wire
    else:
        c.add(Resistor("ROUT", "drain", "out", rout))
    c.add(Capacitor("COUT", "out", "0", cout))
    return c


@pytest.fixture
def pwm_inverter_cell() -> Circuit:
    return make_transcoding_inverter(0.5)
