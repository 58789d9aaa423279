"""Integration tests: every registered experiment at fast fidelity.

These assert the *claims*, not just absence of crashes: linearity
ordering (fig4), frequency flatness (fig5), supply behaviour (fig6/7),
Table II agreement, power decomposition (fig8), and the extension
results.
"""

import pytest

from repro.circuit import AnalysisError
from repro.experiments import (
    PAPER_ARTEFACTS,
    REGISTRY,
    RunConfig,
    run_config,
)


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        assert set(PAPER_ARTEFACTS) <= set(REGISTRY)

    def test_unknown_experiment(self):
        with pytest.raises(AnalysisError):
            run_config(RunConfig.build("fig99"))

    def test_unknown_fidelity(self):
        with pytest.raises(AnalysisError):
            run_config(RunConfig.build("table1", "ultra"))


class TestPaperArtefacts:
    def test_table1_echoes_parameters(self):
        res = run_config(RunConfig.build("table1"))
        assert res.table is not None
        assert any("320" in cell for row in res.table.rows for cell in row)
        assert 5e3 < res.metrics["r_on_nmos"] < 20e3

    @pytest.fixture(scope="class")
    def fig4(self):
        return run_config(RunConfig.build("fig4", "fast"))

    def test_fig4_linearity_ordering(self, fig4):
        assert fig4.metrics["r2[100kOhm]"] > fig4.metrics["r2[5kOhm]"] > \
            fig4.metrics["r2[No load]"]
        assert fig4.metrics["r2[100kOhm]"] > 0.999

    def test_fig4_output_inverse_of_duty(self, fig4):
        series = fig4.figure("fig4").get("100kOhm")
        assert all(b < a for a, b in zip(series.y, series.y[1:]))

    def test_fig5_frequency_flatness(self):
        res = run_config(RunConfig.build("fig5", "fast"))
        for duty in (25, 50, 75):
            assert res.metrics[f"flatness[DC={duty}%]"] < 0.10

    def test_fig6_absolute_grows_with_vdd(self):
        res = run_config(RunConfig.build("fig6", "fast"))
        for duty in (25, 50, 75):
            assert res.metrics[f"slope[DC={duty}%]"] > 0.1

    def test_fig7_ratiometric_flat_from_1V(self):
        res = run_config(RunConfig.build("fig7", "fast"))
        for duty in (25, 50, 75):
            assert res.metrics[f"usable_from[DC={duty}%]"] <= 1.5

    def test_fig7_ratio_ordering_matches_duty(self):
        res = run_config(RunConfig.build("fig7", "fast"))
        fig = res.figure("fig7")
        # Higher duty -> lower Vout/Vdd (inverting transcoder).
        r25 = fig.get("DC=25%").y[-1]
        r75 = fig.get("DC=75%").y[-1]
        assert r25 > r75

    def test_table2_theory_matches_paper(self):
        res = run_config(RunConfig.build("table2", "fast"))
        paper_theory = [2.00, 0.42, 1.21, 2.00, 0.34, 0.96]
        for i, expected in enumerate(paper_theory[:5]):
            assert res.metrics[f"row{i}_theory"] == pytest.approx(expected,
                                                                  abs=0.01)
        assert res.metrics["worst_abs_error"] < 0.15

    def test_fig8_power_in_paper_range(self):
        res = run_config(RunConfig.build("fig8", "fast"))
        assert 50 < res.metrics["power_at_min_freq_uW"] < 2000
        assert res.metrics["power_at_max_freq_uW"] >= \
            res.metrics["power_at_min_freq_uW"]
        assert res.metrics["static_floor_uW"] > 0


class TestExtensions:
    def test_transistor_count_claim(self):
        res = run_config(RunConfig.build("ext_transistor_count"))
        assert res.metrics["pwm_transistors"] == 54
        assert res.metrics["config_formula"] == 54

    def test_robustness_ordering(self):
        res = run_config(RunConfig.build("ext_robustness", "fast"))
        pwm = res.metrics["min_accuracy[PWM (this work)]"]
        dig = res.metrics["min_accuracy[digital MAC @500MHz]"]
        ana = res.metrics["min_accuracy[current-mode analog]"]
        assert pwm == 1.0
        assert pwm > dig
        assert pwm > ana

    def test_montecarlo_errors_affordable(self):
        res = run_config(RunConfig.build("ext_montecarlo", "fast"))
        assert res.metrics["sigma_mV[row0]"] < 30.0

    def test_ablation_recommends_paper_values(self):
        res = run_config(RunConfig.build("ext_ablation", "fast"))
        assert 20e3 <= res.metrics["recommended_rout"] <= 200e3
        assert res.metrics["recommended_cout"] <= 2e-12

    def test_engine_fidelity_bounds(self):
        res = run_config(RunConfig.build("ext_engine_fidelity", "fast"))
        assert res.metrics["worst_rc_vs_behavioral_V"] < 0.05
        assert res.metrics["worst_spice_vs_behavioral_V"] < 0.20
        assert res.metrics["calibrated_rms_residual_V"] < 0.05

    def test_kessels_duty_exact(self):
        res = run_config(RunConfig.build("ext_kessels", "fast"))
        assert res.metrics["worst_duty_error"] < 0.01


class TestRendering:
    def test_every_experiment_renders(self):
        for eid in ("table1", "table2", "ext_transistor_count",
                    "ext_ablation", "ext_kessels"):
            text = run_config(RunConfig.build(eid, "fast")).render(
                charts=False)
            assert eid in text
            assert len(text) > 100
