"""Multi-frequency adder inputs, modulated sources, dynamic supply."""

import numpy as np
import pytest

from repro.circuit import (
    AnalysisError,
    Circuit,
    ModulatedVoltage,
    PwmVoltage,
    Resistor,
    transient,
)
from repro.core import AdderConfig, WeightedAdder
from repro.core.weighted_adder import common_period
from repro.experiments import RunConfig, run_config


class TestCommonPeriod:
    def test_equal_frequencies(self):
        assert common_period([500e6, 500e6]) == pytest.approx(2e-9)

    def test_harmonic_set(self):
        assert common_period([250e6, 500e6, 1000e6]) == pytest.approx(4e-9)

    def test_non_harmonic_but_rational(self):
        # 125 MHz (8 ns) and 625 MHz (1.6 ns): common period 8 ns.
        assert common_period([125e6, 625e6]) == pytest.approx(8e-9)

    def test_irregular_ratio_rejected(self):
        # 333.334 MHz vs 500 MHz: the common period on the femtosecond
        # grid is ~1500x the fastest period — rejected by the guard.
        with pytest.raises(AnalysisError):
            common_period([500e6, 333.334e6])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            common_period([])

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            common_period([-1.0])


class TestMultiFrequencyAdder:
    def test_frequencies_length_checked(self):
        adder = WeightedAdder(AdderConfig())
        with pytest.raises(AnalysisError):
            adder.build_circuit([0.5] * 3, [7] * 3,
                                frequencies=[1e6, 2e6])

    def test_rc_engine_rejects_mixed_frequencies(self):
        adder = WeightedAdder(AdderConfig())
        with pytest.raises(AnalysisError):
            adder.evaluate([0.5] * 3, [7] * 3, engine="rc",
                           frequencies=[250e6, 500e6, 1000e6])

    def test_behavioral_ignores_frequencies(self):
        adder = WeightedAdder(AdderConfig())
        r = adder.evaluate([0.5] * 3, [7] * 3, engine="behavioral",
                           frequencies=[250e6, 500e6, 1000e6])
        assert r.value == pytest.approx(r.theoretical)

    def test_spice_mixed_frequencies_track_eq2(self):
        adder = WeightedAdder(AdderConfig())
        r = adder.evaluate([0.7, 0.8, 0.9], [7, 7, 7], engine="spice",
                           frequencies=[125e6, 250e6, 500e6],
                           steps_per_period=240)
        assert r.value == pytest.approx(r.theoretical, abs=0.08)

    def test_per_input_sources_created(self):
        adder = WeightedAdder(AdderConfig())
        c = adder.build_circuit([0.5] * 3, [7] * 3,
                                frequencies=[125e6, 250e6, 500e6])
        assert c.element("VIN0").frequency == pytest.approx(125e6)
        assert c.element("VIN2").frequency == pytest.approx(500e6)


class TestModulatedVoltage:
    def test_product_of_base_and_envelope(self):
        base = PwmVoltage("U", "x", "y", v_high=1.0, frequency=1e6,
                          duty=0.5, rise_fraction=0.001)
        c = Circuit()
        c.add(ModulatedVoltage("VM", "a", "0", base=base,
                               envelope=lambda t: 2.0 + 1e6 * t))
        c.add(Resistor("R1", "a", "0", "1k"))
        res = transient(c, tstop=4e-6, dt=2e-8)
        wave = res.node("a")
        # High level at t~0.2us is ~2.2, at t~3.2us is ~5.2.
        assert wave.value_at(0.25e-6) == pytest.approx(2.25, abs=0.1)
        assert wave.value_at(3.25e-6) == pytest.approx(5.25, abs=0.1)
        # Low phases stay at zero regardless of the envelope.
        assert wave.value_at(0.75e-6) == pytest.approx(0.0, abs=1e-6)

    def test_breakpoints_include_base_edges(self):
        base = PwmVoltage("U", "x", "y", v_high=1.0, frequency=1e6,
                          duty=0.5)
        src = ModulatedVoltage("VM", "a", "0", base=base,
                               envelope=lambda t: 1.0,
                               envelope_breakpoints=[3.3e-6])
        points = src.breakpoints(0.0, 4e-6)
        assert 3.3e-6 in points
        assert any(abs(p - 1e-6) < 1e-12 for p in points)


class TestDynamicSupplyExperiment:
    def test_ratio_flat_through_droop(self):
        res = run_config(RunConfig.build("ext_dynamic_supply", "fast"))
        assert res.metrics["rail_droop_ratio"] > 1.6
        assert res.metrics["ratio_spread"] < 0.05

    def test_multifreq_experiment_spread(self):
        res = run_config(RunConfig.build("ext_multifreq", "fast"))
        assert res.metrics["spread_upto_500MHz_mV"] < 30.0

    def test_full_system_fast(self):
        res = run_config(RunConfig.build("ext_full_system", "fast"))
        assert res.metrics["mismatches"] == 0
