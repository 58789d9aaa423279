"""Executable summary of every claim the paper makes, claim by claim.

Each test quotes the paper and checks the corresponding measurement at
fast fidelity — the machine-checkable version of EXPERIMENTS.md.
(The benchmarks re-verify these at paper fidelity.)
"""

import numpy as np
import pytest

from repro.circuit import shooting
from repro.core import AdderConfig, WeightedAdder, eq2_output
from repro.experiments import RunConfig, run_config
from tests.conftest import make_transcoding_inverter


class TestSectionII:
    """Claims from the proposed-approach section."""

    def test_average_output_inverse_to_duty(self):
        """'the average voltage on its output is inversely proportional
        to the duty cycle of the input clock'"""
        outputs = []
        for duty in (0.2, 0.5, 0.8):
            pss = shooting(make_transcoding_inverter(duty), 2e-9,
                           steps_per_period=80)
            outputs.append(pss.average("out"))
        assert outputs[0] > outputs[1] > outputs[2]
        # Inverse-linear: Vout ~ Vdd*(1-D).
        for duty, vout in zip((0.2, 0.5, 0.8), outputs):
            assert vout == pytest.approx(2.5 * (1 - duty), abs=0.12)

    def test_connecting_outputs_averages_duties(self):
        """'if we connect the outputs of several cells, the resulting
        output voltage will be inversely proportional to the average
        value of the inputs duty cycle' — via the adder with equal
        weights."""
        adder = WeightedAdder(AdderConfig())
        r = adder.evaluate([0.2, 0.5, 0.8], [7, 7, 7], engine="rc")
        expected = adder.evaluate([0.5, 0.5, 0.5], [7, 7, 7], engine="rc")
        assert r.value == pytest.approx(expected.value, abs=0.02)

    def test_eq2_bounds_and_structure(self):
        """Eq. 2: normalisation by k*(2^n - 1)."""
        assert eq2_output([1.0] * 3, [7] * 3, n_bits=3, vdd=2.5) == \
            pytest.approx(2.5)
        assert eq2_output([0.5] * 3, [7] * 3, n_bits=3, vdd=2.5) == \
            pytest.approx(1.25)

    def test_one_gate_per_bit_per_input(self):
        """'the proposed approach uses only one gate ... per bit for
        every input. Thus, for the 3x3 weighted adder we used only 54
        transistors'"""
        adder = WeightedAdder(AdderConfig())
        circuit = adder.build_circuit([0.5] * 3, [7] * 3)
        assert circuit.stats()["transistors"] == 54


class TestSectionIII:
    """Claims from the experimental-results section."""

    def test_fig4_large_resistor_brings_linearity(self):
        """'In the case of the large output resistor ... the output
        function becomes purely linear.'"""
        res = run_config(RunConfig.build("fig4", "fast"))
        assert res.metrics["r2[100kOhm]"] > 0.999
        assert res.metrics["r2[No load]"] < res.metrics["r2[100kOhm]"]

    def test_fig5_frequency_resilience(self):
        """'the values of Vout are almost the same for a wide range of
        frequencies'"""
        res = run_config(RunConfig.build("fig5", "fast"))
        assert max(res.metrics[f"flatness[DC={d}%]"]
                   for d in (25, 50, 75)) < 0.10

    def test_fig6_absolute_value_unreliable(self):
        """'the output voltage grows almost linearly with increased Vdd
        ... the absolute value of the output voltage does not bear any
        reliable information'"""
        res = run_config(RunConfig.build("fig6", "fast"))
        fig = res.figure("fig6")
        s = fig.get("DC=50%")
        assert s.y[-1] > 1.4 * s.y[0]  # grows strongly with Vdd

    def test_fig7_ratio_stable_from_1V(self):
        """'Starting from 1 - 1.5V the relationship of the Vout to Vdd
        remains the same for different duty cycles'"""
        res = run_config(RunConfig.build("fig7", "fast"))
        for d in (25, 50, 75):
            assert res.metrics[f"usable_from[DC={d}%]"] <= 1.5

    def test_table2_simulation_corresponds_to_theory(self):
        """'The simulations results correspond to the theoretical ones,
        however, the relative error is quite large, especially for the
        lower output voltages.'"""
        res = run_config(RunConfig.build("table2", "fast"))
        assert res.metrics["worst_abs_error"] < 0.15
        # Relative error indeed worst at low outputs.
        rel_low = abs(res.metrics["row1_simulated"] -
                      res.metrics["row1_theory"]) / res.metrics["row1_theory"]
        rel_high = abs(res.metrics["row0_simulated"] -
                       res.metrics["row0_theory"]) / res.metrics["row0_theory"]
        assert rel_low > rel_high

    def test_table2_frequency_remark(self):
        """'simulations have been conducted with various input
        frequencies ... did not have any effect on the results'"""
        res = run_config(RunConfig.build("ext_multifreq", "fast"))
        assert res.metrics["spread_upto_500MHz_mV"] < 30.0

    def test_fig8_power_range(self):
        """Fig. 8: average power in the hundreds of microwatts."""
        res = run_config(RunConfig.build("fig8", "fast"))
        assert 50 < res.metrics["power_at_min_freq_uW"] < 2000


class TestSectionIV:
    """Claims from the conclusion."""

    def test_power_elasticity_and_robustness(self):
        """'the perceptron shows a high degree of power elasticity and
        robustness under these variations'"""
        res = run_config(RunConfig.build("ext_robustness", "fast"))
        assert res.metrics["min_accuracy[PWM (this work)]"] == 1.0

    def test_significantly_fewer_transistors_than_digital(self):
        """'significantly reduces the logic utilization'"""
        res = run_config(RunConfig.build("ext_transistor_count", "fast"))
        # Every digital variant in the table is >10x the PWM count.
        for row in res.table.rows:
            if "digital" in row[0]:
                assert "x" in row[3]
                assert float(row[3].rstrip("x")) > 10.0

    def test_complements_kessels_generator(self):
        """'would nicely complement a power-elastic PWM signal generator
        based on a self-timed loadable modulo N counter'"""
        res = run_config(RunConfig.build("ext_kessels", "fast"))
        assert res.metrics["worst_duty_error"] < 0.01
