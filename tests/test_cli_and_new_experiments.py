"""The CLI entry point and the noise/energy/sensitivity experiments."""

from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.analysis import adder_sensitivities
from repro.circuit import AnalysisError
from repro.core import AdderConfig, WeightedAdder
from repro.experiments import REGISTRY, RunConfig, run_config

YIELD_SPEC = (Path(__file__).resolve().parent.parent / "examples"
              / "campaigns" / "montecarlo_yield.json")


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in REGISTRY:
            assert eid in out

    def test_run_single(self, capsys):
        assert cli_main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "320" in out

    def test_run_with_csv_export(self, tmp_path, capsys):
        assert cli_main(["run", "ext_transistor_count", "--csv",
                         str(tmp_path)]) == 0
        assert (tmp_path / "ext_transistor_count.csv").exists()

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "fig99"])

    @pytest.mark.parametrize("jobs", ["0", "-2", "-99", "two"])
    def test_invalid_jobs_rejected_by_argparse(self, jobs, capsys):
        # There is no --jobs flag any more, so every value is refused.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", "table1", "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "table1"],
        ["all"],
        ["campaign", "run", str(YIELD_SPEC)],
    ], ids=["run", "all", "campaign"])
    def test_jobs_flag_rejected(self, argv, capsys):
        # Runs execute in-process; campaign shards are the only way to
        # parallelise, so there is no --jobs flag on any command.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv + ["--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestNoiseExperiment:
    def test_amplitude_and_frequency_immune(self):
        res = run_config(RunConfig.build("ext_noise", "fast"))
        assert res.metrics["worst_mV[amplitude sigma 3%]"] == 0.0
        assert res.metrics["worst_mV[frequency sigma 3%]"] == 0.0

    def test_jitter_not_immune(self):
        res = run_config(RunConfig.build("ext_noise", "fast"))
        assert res.metrics["mean_mV[edge jitter 3% of period]"] > 10.0


class TestEnergyExperiment:
    def test_energy_table_well_formed(self):
        res = run_config(RunConfig.build("ext_energy", "fast"))
        assert res.metrics["pwm_pJ[2.5V]"] > 0
        assert res.metrics["digital_pJ[2.5V]"] > 0
        assert 0.9 < res.metrics["digital_min_reliable_vdd"] < 1.6

    def test_energy_scales_superlinearly_with_vdd(self):
        res = run_config(RunConfig.build("ext_energy", "fast"))
        assert res.metrics["pwm_pJ[3.5V]"] > 1.5 * res.metrics["pwm_pJ[1.5V]"]


class TestSensitivity:
    def test_all_sensitivities_small(self):
        res = run_config(RunConfig.build("ext_sensitivity", "fast"))
        assert res.metrics and all(
            abs(v) < 0.1 for v in res.metrics.values())

    def test_polarity_asymmetry_dominates(self):
        adder = WeightedAdder(AdderConfig())
        sens = {s.parameter: s.sensitivity for s in adder_sensitivities(
            adder, [0.7, 0.8, 0.9], [7, 7, 7])}
        # NMOS and PMOS strength shifts pull in opposite directions.
        assert sens["nmos_kp"] * sens["pmos_kp"] < 0

    def test_width_and_kp_equivalent(self):
        # Both enter the model only through beta = kp*W/L.
        adder = WeightedAdder(AdderConfig())
        sens = {s.parameter: s.sensitivity for s in adder_sensitivities(
            adder, [0.7, 0.8, 0.9], [7, 7, 7])}
        assert sens["nmos_width"] == pytest.approx(sens["nmos_kp"],
                                                   rel=1e-6)

    def test_zero_output_rejected(self):
        adder = WeightedAdder(AdderConfig())
        with pytest.raises(AnalysisError):
            adder_sensitivities(adder, [0.0, 0.0, 0.0], [0, 0, 0])

    def test_unknown_parameter(self):
        adder = WeightedAdder(AdderConfig())
        with pytest.raises(AnalysisError):
            adder_sensitivities(adder, [0.5] * 3, [7] * 3,
                                parameters=("oxide_thickness",))
