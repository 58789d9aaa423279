"""Solver internals: failure paths, conservation laws, spectrum, sources."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    AnalysisError,
    Capacitor,
    Circuit,
    ConvergenceError,
    Idc,
    MnaContext,
    NetlistError,
    PwmVoltage,
    Resistor,
    SingularMatrixError,
    Vdc,
    Vpulse,
    Waveform,
    operating_point,
    settle_average,
    shooting,
    transient,
)


class TestFailurePaths:
    def test_floating_branch_is_held_by_gmin(self):
        # A node connected only through a capacitor has no DC path, but
        # the gmin shunt keeps the matrix solvable (SPICE behaviour).
        c = Circuit()
        c.add(Vdc("V1", "a", "0", 1.0))
        c.add(Capacitor("C1", "a", "b", "1n"))
        op = operating_point(c)
        assert abs(op.voltage("b")) < 1e-6

    def test_voltage_source_loop_is_singular(self):
        # Two ideal sources directly in parallel with different values
        # has no solution; the solver must say so, not return nonsense.
        c = Circuit()
        c.add(Vdc("V1", "a", "0", 1.0))
        c.add(Vdc("V2", "a", "0", 2.0))
        with pytest.raises(ConvergenceError):
            operating_point(c)

    def test_shooting_reports_nonconvergence(self):
        ckt = Circuit()
        ckt.add(PwmVoltage("VIN", "in", "0", v_high=1.0, frequency=1e6,
                           duty=0.5))
        ckt.add(Resistor("R1", "in", "out", "10k"))
        ckt.add(Capacitor("C1", "out", "0", "1u"))  # tau = 10 ms >> T
        with pytest.raises(ConvergenceError):
            # Zero Newton iterations allowed -> must raise, not hang.
            shooting(ckt, period=1e-6, steps_per_period=40,
                     max_iterations=0)

    def test_settle_average_gives_up(self):
        ckt = Circuit()
        ckt.add(PwmVoltage("VIN", "in", "0", v_high=1.0, frequency=1e6,
                           duty=0.5))
        ckt.add(Resistor("R1", "in", "out", "10k"))
        ckt.add(Capacitor("C1", "out", "0", "1u"))
        with pytest.raises(ConvergenceError):
            settle_average(ckt, 1e-6, "out", chunk_periods=2, max_chunks=2,
                           tol=1e-12)


class TestConservation:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=10.0, max_value=1e6), min_size=2,
                    max_size=6))
    def test_kcl_source_currents_balance(self, resistances):
        """In a star network fed by one source, the source current must
        equal the sum of resistor currents (KCL at the hub)."""
        c = Circuit()
        c.add(Vdc("V1", "hub", "0", 1.0))
        for i, r in enumerate(resistances):
            c.add(Resistor(f"R{i}", "hub", "0", r))
        op = operating_point(c)
        expected = -sum(1.0 / r for r in resistances)
        assert op.branch_current("V1") == pytest.approx(expected, rel=1e-6)

    def test_charge_conservation_in_transient(self):
        """Current source into a capacitor: V = I*t/C exactly."""
        c = Circuit()
        c.add(Idc("I1", "0", "top", 1e-6))
        c.add(Capacitor("C1", "top", "0", "1n"))
        res = transient(c, tstop=1e-3, dt=1e-5, ic={"top": 0.0}, uic=True)
        assert res.node("top").value_at(1e-3) == pytest.approx(
            1e-6 * 1e-3 / 1e-9, rel=1e-6)


class TestSpectrum:
    def test_sine_single_line(self):
        t = np.linspace(0, 1e-3, 4001)
        y = 0.7 * np.sin(2 * np.pi * 10e3 * t) + 0.2
        w = Waveform(t, y)
        freqs, amps = w.spectrum(2048)
        peak_idx = int(np.argmax(amps[1:])) + 1
        assert freqs[peak_idx] == pytest.approx(10e3, rel=0.01)
        assert amps[peak_idx] == pytest.approx(0.7, rel=0.05)
        assert amps[0] == pytest.approx(0.2, abs=0.01)

    def test_square_wave_harmonics(self):
        # 50% square: odd harmonics at 4/(pi*n); even harmonics absent.
        f0 = 1e6
        t = np.linspace(0, 8 / f0, 8001)
        y = np.where((t * f0) % 1.0 < 0.5, 1.0, -1.0)
        w = Waveform(t, y)
        h1 = w.harmonic_amplitude(f0, 1)
        h2 = w.harmonic_amplitude(f0, 2)
        h3 = w.harmonic_amplitude(f0, 3)
        assert h1 == pytest.approx(4 / np.pi, rel=0.05)
        assert h3 == pytest.approx(4 / (3 * np.pi), rel=0.1)
        assert h2 < 0.05 * h1

    def test_validation(self):
        w = Waveform([0.0], [1.0])
        with pytest.raises(AnalysisError):
            w.spectrum()
        w2 = Waveform([0, 1], [0, 1])
        with pytest.raises(AnalysisError):
            w2.spectrum(n_points=1)
        with pytest.raises(AnalysisError):
            w2.harmonic_amplitude(0.0)


class TestSourceValidation:
    def test_vpulse_segment_checks(self):
        with pytest.raises(NetlistError):
            Vpulse("V1", "a", "0", v1=0, v2=1, rise=-1e-9, fall=1e-9,
                   width=1e-9, period=1e-6)
        with pytest.raises(NetlistError):
            Vpulse("V1", "a", "0", v1=0, v2=1, rise=1e-9, fall=1e-9,
                   width=2e-6, period=1e-6)

    def test_pwm_duty_bounds(self):
        with pytest.raises(NetlistError):
            PwmVoltage("V1", "a", "0", v_high=1.0, frequency=1e6, duty=1.1)

    def test_pwm_extreme_duty_measured(self):
        for duty in (0.02, 0.98):
            c = Circuit()
            c.add(PwmVoltage("V1", "a", "0", v_high=1.0, frequency=1e6,
                             duty=duty))
            c.add(Resistor("R1", "a", "0", "1k"))
            res = transient(c, tstop=5e-6, dt=2e-8)
            assert res.node("a").duty_cycle(0.5) == pytest.approx(duty,
                                                                  abs=0.01)

    def test_pwm_phase_shifts_waveform(self):
        c = Circuit()
        c.add(PwmVoltage("V1", "a", "0", v_high=1.0, frequency=1e6,
                         duty=0.5, phase=0.25))
        c.add(Resistor("R1", "a", "0", "1k"))
        res = transient(c, tstop=2e-6, dt=1e-8)
        rises = res.node("a").crossings(0.5, "rise")
        # First rise lands a quarter period late.
        assert rises[0] == pytest.approx(0.25e-6, abs=0.03e-6)


class TestMnaContextReuse:
    def test_context_reused_across_analyses(self):
        # One context serves repeated DC solves; a transient started
        # from its operating point stays there.
        c = Circuit()
        c.add(Vdc("V1", "in", "0", 1.0))
        c.add(Resistor("R1", "in", "out", "1k"))
        c.add(Capacitor("C1", "out", "0", "1u"))
        ctx = MnaContext(c)
        op = operating_point(c, ctx=ctx)
        assert np.array_equal(operating_point(c, ctx=ctx).x, op.x)
        res = transient(c, tstop=1e-4, dt=1e-6, x0=op.x)
        assert res.node("out").maximum() == pytest.approx(1.0, abs=1e-6)
