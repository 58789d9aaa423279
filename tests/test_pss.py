"""Periodic steady-state (shooting) against analytic and brute-force results."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    AnalysisError,
    Capacitor,
    Circuit,
    CircuitError,
    ConvergenceError,
    PwmVoltage,
    Resistor,
    Vdc,
    settle_average,
    shooting,
    shooting_batch,
)
from repro.circuit.batch_transient import _observed
from tests.conftest import make_transcoding_inverter


def rc_pwm_circuit(duty: float, *, r=10e3, c=1e-9, f=1e6, vhigh=1.0) -> Circuit:
    """Linear RC driven by PWM: steady-state average is duty*vhigh."""
    ckt = Circuit("rc_pwm")
    ckt.add(PwmVoltage("VIN", "in", "0", v_high=vhigh, frequency=f, duty=duty))
    ckt.add(Resistor("R1", "in", "out", r))
    ckt.add(Capacitor("C1", "out", "0", c))
    return ckt


class TestShootingLinear:
    @pytest.mark.parametrize("duty", [0.2, 0.5, 0.8])
    def test_rc_average_equals_duty(self, duty):
        ckt = rc_pwm_circuit(duty)
        pss = shooting(ckt, period=1e-6, steps_per_period=200)
        # Average of the RC output equals the average of the input.
        assert pss.average("out") == pytest.approx(duty, abs=0.01)

    def test_converges_in_few_iterations(self):
        # tau = 10us >> T = 1us: brute force would need ~50 periods,
        # shooting needs a handful of Newton steps.
        ckt = rc_pwm_circuit(0.5)
        pss = shooting(ckt, period=1e-6, steps_per_period=100)
        assert pss.iterations <= 4

    def test_periodicity_of_result(self):
        ckt = rc_pwm_circuit(0.3)
        pss = shooting(ckt, period=1e-6, steps_per_period=200)
        wave = pss.node("out")
        assert wave.y[0] == pytest.approx(wave.y[-1], abs=1e-3)

    def test_ripple_scales_with_period(self):
        slow = shooting(rc_pwm_circuit(0.5, f=1e6), period=1e-6,
                        steps_per_period=100)
        fast = shooting(rc_pwm_circuit(0.5, f=10e6), period=1e-7,
                        steps_per_period=100)
        assert fast.ripple("out") < slow.ripple("out") / 5


class TestShootingVsSettle:
    def test_agreement_on_transcoding_inverter(self):
        ckt = make_transcoding_inverter(0.6)
        pss = shooting(ckt, period=2e-9, steps_per_period=100)
        avg_settle, _ = settle_average(
            make_transcoding_inverter(0.6), 2e-9, "out",
            steps_per_period=60, chunk_periods=30, tol=5e-4)
        assert pss.average("out") == pytest.approx(avg_settle, abs=0.02)


class TestShootingValidation:
    def test_bad_period(self):
        with pytest.raises(AnalysisError):
            shooting(rc_pwm_circuit(0.5), period=0.0)

    def test_no_observable_nodes(self):
        c = Circuit()
        c.add(Vdc("V1", "a", "0", 1.0))
        c.add(Resistor("R1", "a", "0", "1k"))
        with pytest.raises(AnalysisError):
            shooting(c, period=1e-6)

    def test_cannot_observe_ground(self):
        with pytest.raises(AnalysisError):
            shooting(rc_pwm_circuit(0.5), period=1e-6, observe=["0"])

    def test_explicit_observe_works(self):
        pss = shooting(rc_pwm_circuit(0.5), period=1e-6, observe=["out"],
                       steps_per_period=100)
        assert pss.average("out") == pytest.approx(0.5, abs=0.01)


class TestShootingNonConvergence:
    """Shooting failure must surface as a typed, bounded error."""

    def test_unreachable_tolerance_raises_typed_error(self):
        # tol=0 can never be met; the engine must stop at
        # max_iterations with ConvergenceError — never a raw
        # numpy.linalg.LinAlgError or an unbounded loop.
        with pytest.raises(ConvergenceError) as excinfo:
            shooting(rc_pwm_circuit(0.5), period=1e-6,
                     steps_per_period=40, max_iterations=3, tol=0.0)
        assert "3 iterations" in str(excinfo.value)
        assert not isinstance(excinfo.value, np.linalg.LinAlgError)
        assert isinstance(excinfo.value, CircuitError)
        assert excinfo.value.analysis == "pss"

    def test_max_iterations_bounds_the_period_runs(self, monkeypatch):
        # Each iteration costs one lock-step period run of one lane per
        # open point (the Jacobian rides along as sensitivity columns):
        # max_iterations=2 is exactly 2 runs of 1 lane.
        from repro.circuit.batch_transient import BatchTransientSolver

        lanes = []
        real = BatchTransientSolver.run

        def counting(self, tstop, dt, **kwargs):
            lanes.append(len(kwargs["x0"]))
            return real(self, tstop, dt, **kwargs)

        monkeypatch.setattr(BatchTransientSolver, "run", counting)
        with pytest.raises(ConvergenceError):
            shooting(rc_pwm_circuit(0.5), period=1e-6,
                     steps_per_period=40, max_iterations=2, tol=0.0,
                     observe=["out"])
        assert lanes == [1, 1]

    def test_singular_period_map_falls_back_not_raises(self):
        # A duty-0 source makes the observed node an undriven RC to
        # ground: the shooting Jacobian is benign here, but the
        # (I - A) solve path must never leak LinAlgError for any
        # converged-or-not outcome.
        ckt = rc_pwm_circuit(0.0)
        pss = shooting(ckt, period=1e-6, steps_per_period=40)
        assert pss.average("out") == pytest.approx(0.0, abs=1e-6)


class TestTranscodingInverterPss:
    """The paper's Fig. 2 cell behaves as designed under PSS."""

    def test_output_inverse_of_duty(self):
        v40 = shooting(make_transcoding_inverter(0.4), 2e-9,
                       steps_per_period=80).average("out")
        v70 = shooting(make_transcoding_inverter(0.7), 2e-9,
                       steps_per_period=80).average("out")
        assert v40 > v70

    def test_output_close_to_ideal_with_large_rout(self):
        for duty in (0.25, 0.75):
            pss = shooting(make_transcoding_inverter(duty), 2e-9,
                           steps_per_period=80)
            ideal = 2.5 * (1 - duty)
            assert pss.average("out") == pytest.approx(ideal, abs=0.15)

    def test_supply_power_positive_and_small(self):
        pss = shooting(make_transcoding_inverter(0.5), 2e-9,
                       steps_per_period=80)
        power = pss.supply_power("VDD")
        assert 0 < power < 1e-3  # sub-milliwatt cell


class TestPeriodicityProperty:
    """Every converged batched PSS point is periodic on its observed
    nodes: its captured wave — the base lane, which starts exactly at
    the iterate, not a finite-difference probe — ends within ``tol`` of
    where it started, and that gap is the reported residual."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(points=st.lists(
        st.one_of(
            st.tuples(st.just("rc"),
                      st.floats(min_value=0.05, max_value=0.95),
                      st.sampled_from([1e3, 10e3, 100e3])),
            st.tuples(st.just("cell"),
                      st.floats(min_value=0.1, max_value=0.9),
                      st.sampled_from([10e3, 100e3]))),
        min_size=1, max_size=3),
        steps=st.sampled_from([20, 40]))
    def test_converged_points_are_periodic(self, points, steps):
        def make(kind, duty, r):
            if kind == "rc":
                return rc_pwm_circuit(duty, r=r)
            return make_transcoding_inverter(duty, rout=r)

        circuits = [make(*point) for point in points]
        periods = [1e-6 if kind == "rc" else 2e-9 for kind, _, _ in points]
        tol = 1e-4
        batch = shooting_batch(circuits, periods, steps_per_period=steps,
                               tol=tol)
        for p, circuit in enumerate(circuits):
            waves = batch.point(p).waves
            obs = _observed(circuit, None)
            gap = np.max(np.abs(waves.X[-1, obs] - waves.X[0, obs]))
            assert gap < tol
            assert gap == batch.residuals[p]
            assert waves.t[-1] == pytest.approx(periods[p], rel=1e-12)


def _central_difference(solver, x, period, steps, obs, delta):
    """``dx(T)/dx(0)[:, obs]`` of one period by central differences:
    one lock-step run of ``+-delta`` starts per observed node."""
    n = len(obs)
    starts = np.repeat(x, 2 * n, axis=0)
    starts[np.arange(0, 2 * n, 2), obs] += delta
    starts[np.arange(1, 2 * n, 2), obs] -= delta
    end = solver.run(np.full(2 * n, period), np.full(2 * n, period / steps),
                     x0=starts, points=np.zeros(2 * n, dtype=int)).final_x
    return ((end[0::2] - end[1::2]) / (2 * delta)).T


class TestPeriodMapJacobian:
    """The sensitivity columns a shooting run carries are the period
    map's Jacobian: they match central differences of one period at a
    fixed state, through forced step halvings too."""

    def _check(self, circuit, period, steps, observe, *, warmup=2,
               halved=False):
        from repro.circuit.batch_transient import BatchTransientSolver
        from repro.circuit.dc import operating_point

        solver = BatchTransientSolver([circuit])
        obs = _observed(circuit, observe)
        x = operating_point(circuit, t=0.0, ctx=solver.contexts[0]).x[None]
        for _ in range(warmup):
            x = solver.run(period, period / steps, x0=x).final_x
        run = solver.run(period, period / steps, x0=x, sensitivity=obs)
        assert (run.halvings[0] > 0) == halved
        fd = _central_difference(solver, x, period, steps, obs, 1e-4)
        assert run.phi.shape == (1, solver.size, len(obs))
        np.testing.assert_allclose(run.phi[0], fd, rtol=0, atol=1e-6)
        return run.phi[0]

    def test_fig2_bench(self):
        phi = self._check(make_transcoding_inverter(0.5), 2e-9, 80, ["out"])
        # The slow output node: an eigenvalue just under 1.
        assert 0.9 < phi[_observed(make_transcoding_inverter(0.5),
                                   ["out"])[0], 0] < 1.0

    def test_full_perceptron_seven_nodes(self):
        from repro.core.full_perceptron import build_full_perceptron_circuit
        from repro.core.weighted_adder import AdderConfig

        cfg = AdderConfig()
        circuit = build_full_perceptron_circuit(
            (0.7, 0.8, 0.9), (7, 7, 7), 9.0, config=cfg, vdd=2.5)
        self._check(circuit, 1.0 / cfg.frequency, 40,
                    ["out", "decision", "vref", "XCMP.d2", "XCMP.d1",
                     "XCMP.tail", "XCMP.outb"])

    def test_through_forced_step_halving(self):
        # An 80 V input edge fails Newton at the nominal step, so the
        # lane halves inside the period; the columns follow the retry.
        self._check(make_transcoding_inverter(0.5, amplitude=80.0), 2e-9,
                    40, ["out"], warmup=0, halved=True)

    def test_plain_transients_solve_no_extra_columns(self, monkeypatch):
        from repro.circuit import batch_transient, transient

        shapes = []
        real = batch_transient._batched_solve

        def recording(G, I):
            shapes.append(I.ndim)
            return real(G, I)

        monkeypatch.setattr(batch_transient, "_batched_solve", recording)
        result = batch_transient.BatchTransientSolver(
            [make_transcoding_inverter(0.5)]).run(2e-9, 2e-9 / 40)
        transient(make_transcoding_inverter(0.5), 2e-9, 2e-9 / 40)
        assert result.phi is None
        assert shapes and set(shapes) == {2}
        shapes.clear()
        shooting(make_transcoding_inverter(0.5), 2e-9, steps_per_period=40)
        assert set(shapes) == {3}


class TestShootingAccuracy:
    """Shooting stops on its update as well as its residual, so every
    point of the fig4 and fig6 fast grids lands within 1 mV (ten times
    ``tol``) of its ``tol=1e-9`` shooting reference, recorded in
    ``tests/fixtures/accuracy_budget.json`` (2.56 and 6.47 mV under the
    residual-only stop)."""

    @pytest.mark.parametrize("experiment_id", ["fig4", "fig6"])
    def test_fast_grid_within_1mv_of_reference(self, experiment_id):
        import json

        from repro.experiments import RunConfig, run_config
        from tests.accuracy_budget import FIXTURE

        budget = json.loads(FIXTURE.read_text())["experiments"][experiment_id]
        result = run_config(RunConfig.build(experiment_id, "fast")).to_dict()
        (figure,) = result["figures"]
        n = 0
        for series in figure["series"]:
            for i, y in enumerate(series["y"]):
                where = f"figures[{experiment_id}][{series['name']}].y[{i}]"
                assert abs(y - budget[where]["reference"]) < 1e-3, where
                n += 1
        assert n == (15 if experiment_id == "fig4" else 9)
