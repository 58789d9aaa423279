"""Engine registry, batched MNA solver, and cross-layer engine routing."""

import numpy as np
import pytest

from repro.circuit import (
    AnalysisError,
    BatchTransientSolver,
    Capacitor,
    Circuit,
    ConvergenceError,
    Inductor,
    PwmVoltage,
    Resistor,
    Vdc,
    Vpulse,
    VSwitch,
    shooting_batch,
    transient,
)
from repro.core.cells import CellDesign
from repro.engines import (
    CellStimulus,
    EngineCapabilities,
    consistency_report,
    describe,
    engine_ids,
    get_engine,
    require_capability,
)

from tests.scalar_mna_reference import (
    FAST_VDD,
    PERIOD,
    cell_bench,
    rc,
    reference,
)


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_three_engines_registered(self):
        assert engine_ids() == ["behavioral", "rc", "spice"]

    def test_get_engine_is_singleton(self):
        assert get_engine("rc") is get_engine("rc")

    def test_partial_submodule_import_still_fills_registry(self):
        # Regression: importing one engine module directly must not
        # leave the registry permanently partial for this process.
        import os
        import subprocess
        import sys

        code = ("import repro.engines.rc\n"
                "from repro.engines import engine_ids\n"
                "print(engine_ids())\n")
        env = {**os.environ,
               "PYTHONPATH": "src" + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True,
            text=True, env=env, check=True).stdout
        assert "behavioral" in out and "spice" in out

    def test_unknown_engine_message_is_the_single_validation_point(self):
        # The regression pinned by the SWEEP_ENGINES dedup: every
        # surface fails through get_engine with the registry's help.
        with pytest.raises(AnalysisError, match=r"unknown engine 'warp'; "
                           r"registered engines: behavioral, rc, spice"):
            get_engine("warp")

    def test_direct_experiment_call_fails_via_registry(self):
        from repro.experiments.fig6_fig7_supply import run_fig6

        with pytest.raises(AnalysisError,
                           match="registered engines: behavioral, rc"):
            run_fig6(engine="warp")

    def test_param_choices_come_from_registry(self):
        from repro.experiments import get_spec

        for eid in ("fig6", "fig7", "ext_robustness",
                    "ext_dynamic_supply"):
            choices = get_spec(eid).param("engine").choices
            assert choices == tuple(engine_ids())

    def test_describe_document(self):
        doc = describe()
        assert doc["count"] == 3
        by_id = {e["id"]: e for e in doc["engines"]}
        assert by_id["spice"]["capabilities"]["level"] == "transistor"
        assert by_id["behavioral"]["capabilities"]["cost_rank"] == 1
        assert describe("rc")["id"] == "rc"

    def test_require_capability(self):
        assert require_capability("rc", "serving_margins") \
            is get_engine("rc")
        # spice gained serving_margins with the transistor-level
        # /predict path; live supply ramps remain spice-only.
        assert require_capability("spice", "serving_margins") \
            is get_engine("spice")
        with pytest.raises(
                AnalysisError,
                match="engine 'behavioral' does not support "
                      "dynamic_supply"):
            require_capability("behavioral", "dynamic_supply")

    def test_require_capability_names_experiment(self):
        with pytest.raises(
                AnalysisError,
                match="experiment 'ext_foo': engine 'rc' does not "
                      "support dynamic_supply for live ramps"):
            require_capability("rc", "dynamic_supply",
                               context="live ramps",
                               experiment_id="ext_foo")

    def test_capabilities_are_frozen(self):
        caps = get_engine("rc").capabilities()
        assert isinstance(caps, EngineCapabilities)
        with pytest.raises(Exception):
            caps.cost_rank = 99


class TestStimulusValidation:
    def test_duty_bounds(self):
        with pytest.raises(AnalysisError):
            CellStimulus(duty=1.2)

    def test_positive_quantities(self):
        with pytest.raises(AnalysisError):
            CellStimulus(duty=0.5, vdd=-1.0)
        with pytest.raises(AnalysisError):
            CellStimulus(duty=0.5, rout=0.0)

    def test_empty_sweep_rejected(self):
        eng = get_engine("behavioral")
        with pytest.raises(AnalysisError):
            eng.sweep_supply(CellDesign(), CellStimulus(duty=0.5), [])

    def test_trials_rejected(self):
        eng = get_engine("behavioral")
        with pytest.raises(AnalysisError):
            eng.monte_carlo(CellDesign(), CellStimulus(duty=0.5), 0)


# -- engine equivalence -----------------------------------------------------


class TestEngineEquivalence:
    def test_behavioral_is_ideal_transcoding(self):
        eng = get_engine("behavioral")
        stim = CellStimulus(duty=0.3)
        assert eng.evaluate(CellDesign(), stim) == pytest.approx(
            2.5 * 0.7)
        sweep = eng.sweep_supply(CellDesign(), stim, FAST_VDD)
        assert np.allclose(sweep, np.asarray(FAST_VDD) * 0.7)

    def test_rc_engine_matches_legacy_supply_sweep(self):
        from repro.experiments.fig6_fig7_supply import (
            DUTIES,
            supply_sweep_rc_batch,
        )

        legacy = supply_sweep_rc_batch(DUTIES, FAST_VDD)
        rc = get_engine("rc")
        for duty in DUTIES:
            new = rc.sweep_supply(
                CellDesign(),
                CellStimulus(duty=duty, rout=100e3), FAST_VDD)
            assert np.array_equal(
                np.array([p[1] for p in legacy[duty]]), new)

    def test_spice_batched_sweep_equals_scalar_loop(self):
        # One-point shooting runs, checked against the recorded output
        # of the former scalar loop, equal the batched sweep.
        spice = get_engine("spice")
        stim = CellStimulus(duty=0.5, rout=100e3)
        batched = spice.sweep_supply(CellDesign(), stim, FAST_VDD,
                                     steps_per_period=60)
        scalar = [pss.average("out")
                  for pss in reference("cell_sweep_shooting")]
        assert np.array_equal(batched, scalar)

    def test_spice_grid_is_one_batch_equal_to_row_sweeps(self, monkeypatch):
        from repro.engines import spice as spice_module

        spice = get_engine("spice")
        stimuli = [CellStimulus(duty=0.25, rout=100e3),
                   CellStimulus(duty=0.75, rout=100e3, frequency=250e6)]
        rows = np.stack([spice.sweep_supply(CellDesign(), s, FAST_VDD,
                                            steps_per_period=60)
                         for s in stimuli])
        calls = []
        real = spice_module.shooting_batch

        def counting(circuits, *args, **kwargs):
            calls.append(len(circuits))
            return real(circuits, *args, **kwargs)

        monkeypatch.setattr(spice_module, "shooting_batch", counting)
        grid = spice.sweep_grid(CellDesign(), stimuli, FAST_VDD,
                                steps_per_period=60)
        assert calls == [len(stimuli) * len(FAST_VDD)]
        assert np.array_equal(grid, rows)

    def test_base_grid_stacks_supply_sweeps(self):
        rc = get_engine("rc")
        stimuli = [CellStimulus(duty=d, rout=100e3) for d in (0.25, 0.5)]
        grid = rc.sweep_grid(CellDesign(), stimuli, FAST_VDD)
        assert grid.shape == (2, len(FAST_VDD))
        for row, stimulus in zip(grid, stimuli):
            assert np.array_equal(
                row, rc.sweep_supply(CellDesign(), stimulus, FAST_VDD))
        for eid in ("rc", "spice"):
            with pytest.raises(AnalysisError, match="stimulus"):
                get_engine(eid).sweep_grid(CellDesign(), [], FAST_VDD)

    def test_engines_agree_on_shared_points(self):
        report = consistency_report(duties=(0.5,), vdd_values=(2.5,),
                                    steps_per_period=60)
        # The ladder: rc within ~15 mV of ideal, spice within ~60 mV.
        assert report.divergence("rc", "behavioral") < 0.02
        assert report.divergence("spice", "behavioral") < 0.06

    def test_monte_carlo_determinism_and_mismatch(self):
        stim = CellStimulus(duty=0.5, rout=100e3)
        rc = get_engine("rc")
        a = rc.monte_carlo(CellDesign(), stim, 8, seed=3)
        b = rc.monte_carlo(CellDesign(), stim, 8, seed=3)
        assert np.array_equal(a, b)
        assert np.std(a) > 0          # mismatch moves the output
        beh = get_engine("behavioral").monte_carlo(
            CellDesign(), stim, 8, seed=3)
        assert np.ptp(beh) == 0.0     # ideal math cannot see mismatch

    def test_spice_monte_carlo_batches(self):
        stim = CellStimulus(duty=0.5, rout=100e3)
        values = get_engine("spice").monte_carlo(
            CellDesign(), stim, 3, seed=5, steps_per_period=50)
        assert values.shape == (3,)
        assert np.std(values) > 0


# -- batched transient / shooting ------------------------------------------


class TestBatchTransient:
    def test_linear_rc_batch_matches_scalar(self):
        scal = reference("linear_rc")
        bat = BatchTransientSolver([rc(v) for v in (1.0, 2.0)]).run(
            5e-3, 1e-5, x0=np.stack([s.X[0] for s in scal]))
        for p, s in enumerate(scal):
            assert np.array_equal(bat.X[:, p, :], s.X)

    def test_cell_bench_batch_is_bit_identical(self):
        vdds = FAST_VDD
        scal = reference("cell_sweep_transient")
        bat = BatchTransientSolver(
            [cell_bench(v) for v in vdds]).run(PERIOD, PERIOD / 60)
        assert np.array_equal(bat.t, scal[0].t)
        for p, s in enumerate(scal):
            assert np.array_equal(bat.X[:, p, :], s.X)

    def test_point_view_is_a_transient_result(self):
        bat = BatchTransientSolver(
            [cell_bench(v) for v in (1.0, 2.0)]).run(PERIOD, PERIOD / 50)
        wave = bat.point(1).node("out")
        assert len(wave) == len(bat.t)

    def test_structure_mismatch_rejected(self):
        a = cell_bench(1.0)
        b = Circuit("other")
        b.add(Vdc("V1", "x", "0", 1.0))
        b.add(Resistor("R1", "x", "0", "1k"))
        with pytest.raises(AnalysisError, match="share element structure"):
            BatchTransientSolver([a, b])

    def test_node_name_mismatch_rejected(self):
        # Same elements on the same node indices, other node names.
        def make(out):
            c = Circuit("rc")
            c.add(Vdc("V1", "in", "0", 1.0))
            c.add(Resistor("R1", "in", out, "1k"))
            c.add(Capacitor("C1", out, "0", "1p"))
            return c

        with pytest.raises(AnalysisError, match="share element structure"):
            BatchTransientSolver([make("out"), make("y")])

    def test_timing_mismatch_matches_scalar(self):
        # Same structure, different duty -> different breakpoints: each
        # lane walks its own time grid and equals its scalar run.
        duties = (0.3, 0.7)
        scal = reference("timing_mismatch")
        bat = BatchTransientSolver(
            [cell_bench(2.5, duty=d) for d in duties]).run(PERIOD,
                                                           PERIOD / 50)
        for p, s in enumerate(scal):
            lane = bat.point(p)
            assert np.array_equal(lane.t, s.t)
            assert np.array_equal(lane.X, s.X)
        with pytest.raises(AnalysisError, match="different time grids"):
            bat.t

    def test_inductor_lanes_match_closed_form(self):
        # Two RL lanes with their own inductance: each current rises
        # as (V/R)(1 - exp(-t R/L)), and a lane equals its one-lane run.
        def make(inductance):
            c = Circuit("rl")
            c.add(Vdc("V1", "in", "0", 1.0))
            c.add(Resistor("R1", "in", "out", "1k"))
            c.add(Inductor("L1", "out", "0", inductance, ic=0.0))
            return c

        inductances = (1e-3, 2e-3)
        batch = BatchTransientSolver([make(l) for l in inductances])
        bat = batch.run(5e-6, 1e-8, x0=np.zeros((2, batch.size)))
        for p, inductance in enumerate(inductances):
            i = bat.point(p).branch_current("L1")
            for t in (1e-6, 3e-6):
                expected = 1e-3 * (1 - np.exp(-t * 1e3 / inductance))
                assert i.value_at(t) == pytest.approx(expected, rel=5e-3)
        one = transient(make(2e-3), 5e-6, 1e-8, uic=True)
        assert np.array_equal(bat.point(1).X, one.X)

    def test_switch_gated_rc_charges_only_while_on(self):
        # A VSwitch closes a 1 V source onto 1k + 1n (tau = 1 us) while
        # its control pulse is high, 1-3 us; the lanes' other
        # capacitance must not change the first lane's bits.
        def make(cap):
            c = Circuit("switched_rc")
            c.add(Vdc("VS", "src", "0", 1.0))
            c.add(Vpulse("VC", "ctrl", "0", v1=0.0, v2=1.0, delay=1e-6,
                         rise=1e-9, fall=1e-9, width=2e-6, period=10e-6))
            c.add(VSwitch("S1", "src", "mid", "ctrl", "0", smooth=0.01))
            c.add(Resistor("R1", "mid", "out", "1k"))
            c.add(Capacitor("C1", "out", "0", cap))
            return c

        one = transient(make(1e-9), 5e-6, 1e-8, uic=True)
        out = one.node("out")
        assert abs(out.value_at(0.99e-6)) < 1e-6
        charged = 1 - np.exp(-2.0)
        assert out.value_at(3e-6) == pytest.approx(charged, rel=1e-2)
        assert out.value_at(5e-6) == pytest.approx(out.value_at(3.01e-6),
                                                   abs=1e-3)
        bat = BatchTransientSolver([make(1e-9), make(2e-9)]).run(
            5e-6, 1e-8, x0=np.stack([one.X[0]] * 2))
        assert np.array_equal(bat.point(0).t, one.t)
        assert np.array_equal(bat.point(0).X, one.X)
        assert bat.point(1).node("out").value_at(3e-6) < charged

    def test_empty_batch_rejected(self):
        with pytest.raises(AnalysisError):
            BatchTransientSolver([])

    def test_capacitor_free_batch_runs(self):
        # Regression: a purely resistive batch must integrate, not
        # trip over uninitialised capacitor state.
        def make(v):
            c = Circuit("divider")
            c.add(Vdc("V1", "in", "0", v))
            c.add(Resistor("R1", "in", "out", "1k"))
            c.add(Resistor("R2", "out", "0", "1k"))
            return c

        bat = BatchTransientSolver([make(v) for v in (1.0, 2.0)]).run(
            1e-6, 1e-7)
        assert np.allclose(bat.node("out")[-1], [0.5, 1.0])

    def test_bad_x0_shape_rejected(self):
        solver = BatchTransientSolver([cell_bench(1.0)])
        with pytest.raises(AnalysisError, match="x0 must be"):
            solver.run(PERIOD, PERIOD / 50, x0=np.zeros((3, 3)))


class TestShootingBatch:
    def test_matches_scalar_shooting_bitwise(self):
        vdds = FAST_VDD
        scal = np.array([pss.average("out")
                         for pss in reference("cell_sweep_shooting")])
        batch = shooting_batch([cell_bench(v) for v in vdds], PERIOD,
                               observe=["out"], steps_per_period=60)
        assert np.array_equal(scal, batch.averages("out"))
        assert batch.n_points == 3

    def test_point_recovers_scalar_result_object(self):
        batch = shooting_batch([cell_bench(2.5)], PERIOD,
                               observe=["out"], steps_per_period=60)
        pss = batch.point(0)
        assert pss.average("out") == batch.averages("out")[0]
        assert pss.iterations >= 1

    def test_max_iterations_respected(self):
        with pytest.raises(ConvergenceError, match="did not converge"):
            shooting_batch([cell_bench(2.5)], PERIOD, observe=["out"],
                           steps_per_period=50, max_iterations=1,
                           tol=0.0)

    def test_needs_observed_node(self):
        c = Circuit("r_only")
        c.add(PwmVoltage("V1", "in", "0", v_high=1.0, frequency=1e6,
                         duty=0.5))
        c.add(Resistor("R1", "in", "0", "1k"))
        with pytest.raises(AnalysisError, match="observed node"):
            shooting_batch([c], 1e-6)


# -- capability-driven dispatch across layers -------------------------------


class TestCapabilityDispatch:
    def test_dynamic_supply_requires_capability(self):
        from repro.experiments.ext_dynamic_supply import run

        with pytest.raises(AnalysisError,
                           match="does not support dynamic_supply"):
            run(engine="rc")

    def test_robustness_validates_engine_at_gate(self):
        # Every registered engine now serves margins (spice included),
        # so the gate's remaining job is id validation with the
        # registry's help text.
        from repro.experiments.ext_robustness import run

        with pytest.raises(AnalysisError, match="unknown engine 'warp'"):
            run(engine="warp")

    def test_run_config_validates_engine_at_choke_point(self):
        from repro.experiments import RunConfig

        with pytest.raises(AnalysisError, match="must be one of"):
            RunConfig.build("fig6", "fast", {"engine": "warp"})
        config = RunConfig.build("fig6", "fast", {"engine": "rc"})
        assert config.param_dict()["engine"] == "rc"


# -- serving engine knob ----------------------------------------------------


class TestServingEngineKnob:
    @pytest.fixture(scope="class")
    def model(self):
        from repro.analysis.datasets import make_blobs
        from repro.core.training import PerceptronTrainer

        data = make_blobs(n_per_class=10, n_features=2, separation=0.35,
                          spread=0.09, seed=7)
        trainer = PerceptronTrainer(2, seed=7)
        return trainer.fit(data.X, data.y, epochs=30).perceptron, data

    def test_rc_margins_agree_with_rc_supply_sweep(self, model):
        from repro.serve.engine import BatchInferenceEngine

        perceptron, data = model
        engine = BatchInferenceEngine()
        x = data.X[0]
        vdds = [1.5, 2.5, 3.5]
        sweep_preds = engine.predict_supply_sweep(perceptron, x, vdds,
                                                  engine="rc")
        margins = np.array([
            engine.model_margins(perceptron, [list(x)], vdd=v,
                                 engine="rc")[0] for v in vdds])
        assert np.array_equal(
            (margins > perceptron.comparator.offset).astype(int),
            sweep_preds)

    def test_rc_and_behavioral_predictions_agree_on_blobs(self, model):
        from repro.serve.engine import BatchInferenceEngine

        perceptron, data = model
        engine = BatchInferenceEngine()
        beh = engine.model_margins(perceptron, data.X)
        rc = engine.model_margins(perceptron, data.X, engine="rc")
        offset = perceptron.comparator.offset
        assert np.array_equal(beh > offset, rc > offset)

    def test_spice_margins_served(self, model):
        from repro.serve.engine import BatchInferenceEngine

        perceptron, _ = model
        engine = BatchInferenceEngine()
        row = [[0.9, 0.2]]
        spice = engine.model_margins(perceptron, row, engine="spice")
        beh = engine.model_margins(perceptron, row)
        assert spice.shape == (1,) and np.isfinite(spice).all()
        # Same physics, higher fidelity: the transistor margin tracks
        # the behavioural one to tens of millivolts on this model.
        assert abs(spice[0] - beh[0]) < 0.05


# -- consistency harness ----------------------------------------------------


class TestConsistencyHarness:
    def test_report_shape_and_document(self):
        report = consistency_report(duties=(0.25, 0.75),
                                    vdd_values=(1.0, 2.5),
                                    steps_per_period=50)
        assert set(report.outputs) == {"behavioral", "rc", "spice"}
        assert report.outputs["rc"].shape == (2, 2)
        doc = report.to_dict()
        assert set(doc["pairwise_divergence_V"]) == {
            "rc_vs_behavioral", "spice_vs_behavioral", "spice_vs_rc"}
        assert doc["duties"] == [0.25, 0.75]

    def test_unknown_engine_in_divergence(self):
        report = consistency_report(duties=(0.5,), vdd_values=(2.5,),
                                    engines=("behavioral", "rc"))
        with pytest.raises(AnalysisError, match="not in this report"):
            report.divergence("behavioral", "spice")

    def test_empty_grid_rejected(self):
        with pytest.raises(AnalysisError):
            consistency_report(duties=(), vdd_values=(2.5,))


# -- CLI surface ------------------------------------------------------------


class TestCli:
    def test_list_engines(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--engines"]) == 0
        out = capsys.readouterr().out
        for eid in ("behavioral", "rc", "spice"):
            assert eid in out

    def test_list_engines_json(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["list", "--engines", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 3

    def test_run_fig6_engine_rc(self, capsys):
        from repro.__main__ import main

        assert main(["run", "fig6", "--engine", "rc", "--no-charts",
                     "--no-cache"]) == 0
        assert "fig6" in capsys.readouterr().out
