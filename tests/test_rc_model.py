"""Event-driven RC switch-level solver against analytic results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    AnalysisError,
    Capacitor,
    Circuit,
    PwmVoltage,
    Resistor,
    shooting,
)
from repro.core import RcLeg, RcSwitchSolver


def single_leg(duty, r=10e3, phase=0.0, vdd=2.5):
    return RcLeg(r_up=r, r_down=r, duty=duty, phase=phase, v_up=vdd)


class TestValidation:
    def test_bad_resistances(self):
        with pytest.raises(AnalysisError):
            RcLeg(r_up=0.0, r_down=1.0, duty=0.5)

    def test_bad_duty(self):
        with pytest.raises(AnalysisError):
            RcLeg(r_up=1.0, r_down=1.0, duty=1.5)

    def test_solver_needs_legs(self):
        with pytest.raises(AnalysisError):
            RcSwitchSolver([], cout=1e-12, period=1e-9, vdd=2.5)

    def test_bad_cout(self):
        with pytest.raises(AnalysisError):
            RcSwitchSolver([single_leg(0.5)], cout=0.0, period=1e-9, vdd=2.5)

    def test_legs_use_the_solver_rails(self):
        with pytest.raises(AnalysisError, match="vdd"):
            RcSwitchSolver([single_leg(0.5, vdd=3.3)], cout=1e-12,
                           period=1e-9, vdd=2.5)
        with pytest.raises(AnalysisError, match="ground"):
            RcSwitchSolver([RcLeg(1e3, 1e3, 0.5, v_down=0.1)], cout=1e-12,
                           period=1e-9, vdd=2.5)


class TestSingleLeg:
    def test_symmetric_leg_average_equals_duty(self):
        sol = RcSwitchSolver([single_leg(0.3)], cout=1e-12, period=2e-9,
                             vdd=2.5).solve()
        assert sol.average_voltage() == pytest.approx(0.75, rel=1e-6)

    def test_asymmetric_resistances_shift_average(self):
        # Stronger pull-up than pull-down raises the average above
        # duty * vdd.
        leg = RcLeg(r_up=5e3, r_down=20e3, duty=0.5, v_up=2.5)
        sol = RcSwitchSolver([leg], cout=1e-12, period=2e-9, vdd=2.5).solve()
        # Analytic: v = vdd * (d/Ru) / (d/Ru + (1-d)/Rd)
        expected = 2.5 * (0.5 / 5e3) / (0.5 / 5e3 + 0.5 / 20e3)
        assert sol.average_voltage() == pytest.approx(expected, rel=1e-3)

    def test_duty_zero_and_one(self):
        lo = RcSwitchSolver([single_leg(0.0)], cout=1e-12, period=2e-9,
                            vdd=2.5).solve()
        hi = RcSwitchSolver([single_leg(1.0)], cout=1e-12, period=2e-9,
                            vdd=2.5).solve()
        assert lo.average_voltage() == pytest.approx(0.0, abs=1e-9)
        assert hi.average_voltage() == pytest.approx(2.5, abs=1e-9)

    def test_ripple_exact_for_slow_switching(self):
        # Period >> tau: the node swings rail to rail.
        sol = RcSwitchSolver([single_leg(0.5, r=1e3)], cout=1e-12,
                             period=1e-6, vdd=2.5).solve()
        assert sol.ripple() == pytest.approx(2.5, abs=0.01)

    def test_ripple_small_for_fast_switching(self):
        sol = RcSwitchSolver([single_leg(0.5, r=100e3)], cout=10e-12,
                             period=1e-9, vdd=2.5).solve()
        assert sol.ripple() < 0.01

    def test_settling_constant_is_rc(self):
        sol = RcSwitchSolver([single_leg(0.3, r=20e3)], cout=1e-12,
                             period=2e-9, vdd=2.5).solve()
        assert sol.settling_time_constant() == pytest.approx(20e-9)

    def test_supply_power_drawn_only_when_up(self):
        sol = RcSwitchSolver([single_leg(0.0)], cout=1e-12, period=2e-9,
                             vdd=2.5).solve()
        assert sol.supply_power() == pytest.approx(0.0, abs=1e-12)

    def test_supply_power_static_divider(self):
        # Two always-on legs, one up one down: a pure resistive divider.
        legs = [RcLeg(r_up=10e3, r_down=10e3, duty=1.0, v_up=2.5),
                RcLeg(r_up=10e3, r_down=10e3, duty=0.0, v_up=2.5)]
        sol = RcSwitchSolver(legs, cout=1e-12, period=2e-9, vdd=2.5).solve()
        assert sol.average_voltage() == pytest.approx(1.25, rel=1e-6)
        # P = Vdd * I = 2.5 * (2.5-1.25)/10k = 312.5 uW
        assert sol.supply_power() == pytest.approx(312.5e-6, rel=1e-6)


class TestMultiLeg:
    def test_conductance_weighted_average(self):
        legs = [RcLeg(r_up=10e3, r_down=10e3, duty=1.0, v_up=2.5),
                RcLeg(r_up=30e3, r_down=30e3, duty=0.0, v_up=2.5)]
        sol = RcSwitchSolver(legs, cout=1e-12, period=2e-9, vdd=2.5).solve()
        # v = vdd * g1/(g1+g2) = 2.5 * (1/10k)/(1/10k + 1/30k) = 1.875
        assert sol.average_voltage() == pytest.approx(1.875, rel=1e-6)

    def test_phases_do_not_change_average(self):
        base = [single_leg(0.4, phase=0.0), single_leg(0.6, phase=0.0)]
        shifted = [single_leg(0.4, phase=0.3), single_leg(0.6, phase=0.7)]
        a = RcSwitchSolver(base, cout=10e-12, period=2e-9, vdd=2.5).solve()
        b = RcSwitchSolver(shifted, cout=10e-12, period=2e-9,
                           vdd=2.5).solve()
        assert a.average_voltage() == pytest.approx(b.average_voltage(),
                                                    abs=1e-3)

    def test_interleaved_phases_reduce_ripple(self):
        aligned = [single_leg(0.5, phase=0.0), single_leg(0.5, phase=0.0)]
        spread = [single_leg(0.5, phase=0.0), single_leg(0.5, phase=0.5)]
        a = RcSwitchSolver(aligned, cout=1e-12, period=2e-9, vdd=2.5).solve()
        b = RcSwitchSolver(spread, cout=1e-12, period=2e-9, vdd=2.5).solve()
        assert b.ripple() < a.ripple()

    def test_waveform_periodicity(self):
        sol = RcSwitchSolver([single_leg(0.35, r=50e3)], cout=1e-12,
                             period=2e-9, vdd=2.5).solve()
        wave = sol.waveform()
        assert wave.y[0] == pytest.approx(wave.y[-1], rel=1e-6)

    def test_matches_transistor_free_spice(self):
        """The RC engine must agree with the MNA engine on the same
        idealised circuit (PWM source + R + C)."""
        duty, r, c, period = 0.6, 10e3, 1e-12, 2e-9
        sol = RcSwitchSolver(
            [RcLeg(r_up=r, r_down=r, duty=duty, v_up=2.5)],
            cout=c, period=period, vdd=2.5).solve()
        ckt = Circuit()
        ckt.add(PwmVoltage("VIN", "in", "0", v_high=2.5, frequency=1 / period,
                           duty=duty, rise_fraction=0.001))
        ckt.add(Resistor("R1", "in", "out", r))
        ckt.add(Capacitor("C1", "out", "0", c))
        pss = shooting(ckt, period, steps_per_period=400)
        assert sol.average_voltage() == pytest.approx(
            pss.average("out"), abs=0.02)


@settings(max_examples=30)
@given(st.floats(min_value=0, max_value=1),
       st.floats(min_value=1e3, max_value=1e6),
       st.floats(min_value=1e-13, max_value=1e-10))
def test_average_always_bounded(duty, r, cout):
    sol = RcSwitchSolver([single_leg(duty, r=r)], cout=cout, period=2e-9,
                         vdd=2.5).solve()
    assert -1e-9 <= sol.average_voltage() <= 2.5 + 1e-9
    assert sol.ripple() >= 0.0
    assert sol.supply_power() >= -1e-15
