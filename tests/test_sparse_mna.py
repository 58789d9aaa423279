"""The sparse/stacked MNA equivalence net.

Pins the two promises the solver knob makes:

* **batched == one point at a time, bit for bit** — the supply-ramp
  waveform family, the shooting Jacobian probes, the supply-sweep
  stacks and ragged batches (per-point timing, periods, step counts and
  step halvings) reproduce one-lane ``transient``/``shooting`` runs
  exactly (block-diagonal stacked systems, same iterates), and those
  one-lane runs reproduce the recorded output of the former scalar
  step loop (``tests/fixtures/scalar_mna_reference.json``, within the
  tolerance ``tests/scalar_mna_reference.py`` states);
* **sparse == dense, within a documented tolerance** — splu and LAPACK
  factorisations of the same MNA system agree to ``atol=1e-9`` (the
  measured gap on the 54-transistor adder is ~2e-12; the slack covers
  platform BLAS variation), and the ``auto`` crossover never moves the
  paper's small cells off the bit-exact dense path.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    AnalysisError,
    Capacitor,
    Circuit,
    Resistor,
    Vpulse,
    transient,
)
from repro import telemetry
from repro.circuit.batch_transient import (
    BatchTransientSolver,
    shooting_batch,
    shooting_jacobian_batched,
)
from repro.circuit.pss import shooting
from repro.circuit.sparse import (
    HAS_SCIPY,
    SOLVERS,
    SPARSE_MAX_FILL,
    SPARSE_MIN_SIZE,
    check_solver,
    choose_backend,
    matrix_fill,
    sparse_solve,
    sparse_solve_batch,
)
from repro.core.weighted_adder import AdderConfig, WeightedAdder
from tests.scalar_mna_reference import (
    FIG5_POINTS,
    HALVING_AMPLITUDES,
    cell,
    fig4_points,
    multifreq_setup,
    reference,
)

needs_scipy = pytest.mark.skipif(not HAS_SCIPY,
                                 reason="scipy not installed")

#: Documented sparse-vs-dense agreement (see module docstring).
SPARSE_ATOL = 1e-9


# -- the solver knob ---------------------------------------------------------


class TestSolverKnob:
    def test_check_solver(self):
        assert check_solver(None) == "auto"
        for s in SOLVERS:
            if s == "sparse" and not HAS_SCIPY:
                continue
            assert check_solver(s) == s
        with pytest.raises(AnalysisError, match="unknown solver 'lu'"):
            check_solver("lu")

    @pytest.mark.skipif(HAS_SCIPY, reason="needs a scipy-free install")
    def test_sparse_without_scipy_fails_at_validation(self):
        with pytest.raises(AnalysisError, match="requires scipy"):
            check_solver("sparse")

    def test_explicit_backends_pass_through(self):
        assert choose_backend(8, 0.9, "dense") == "dense"
        assert choose_backend(10_000, 0.001, "dense") == "dense"
        if HAS_SCIPY:
            assert choose_backend(8, 0.9, "sparse") == "sparse"
        with pytest.raises(AnalysisError, match="unknown solver"):
            choose_backend(8, 0.5, "turbo")

    @needs_scipy
    def test_auto_crossover(self):
        assert choose_backend(SPARSE_MIN_SIZE, SPARSE_MAX_FILL) == "sparse"
        assert choose_backend(SPARSE_MIN_SIZE - 1, SPARSE_MAX_FILL) \
            == "dense"
        assert choose_backend(SPARSE_MIN_SIZE, SPARSE_MAX_FILL + 1e-6) \
            == "dense"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(size=st.integers(min_value=0, max_value=SPARSE_MIN_SIZE - 1),
           fill=st.floats(min_value=0.0, max_value=1.0))
    def test_auto_never_sparse_for_paper_grid_cells(self, size, fill):
        # Regression guard: the paper's benches (S <= ~60) must stay on
        # the bit-exact dense path no matter how sparse they look.
        assert choose_backend(size, fill) == "dense"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(size=st.integers(min_value=1, max_value=4096),
           fill=st.floats(min_value=0.0, max_value=1.0))
    def test_auto_is_total_and_deterministic(self, size, fill):
        backend = choose_backend(size, fill)
        assert backend in ("dense", "sparse")
        assert choose_backend(size, fill) == backend
        if backend == "sparse":
            assert HAS_SCIPY
            assert size >= SPARSE_MIN_SIZE and fill <= SPARSE_MAX_FILL

    def test_matrix_fill(self):
        assert matrix_fill(np.zeros((0, 0))) == 0.0
        assert matrix_fill(np.eye(4)) == pytest.approx(0.25)
        assert matrix_fill(np.ones((3, 3))) == 1.0


# -- raw solve agreement -----------------------------------------------------


@needs_scipy
class TestSparseSolve:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_matches_dense_on_random_systems(self, n, seed):
        rng = np.random.default_rng(seed)
        # Diagonally dominated like an MNA conductance matrix.
        G = rng.standard_normal((n, n)) + n * np.eye(n)
        I = rng.standard_normal(n)
        np.testing.assert_allclose(sparse_solve(G, I),
                                   np.linalg.solve(G, I),
                                   atol=SPARSE_ATOL, rtol=1e-9)

    def test_batch_matches_dense(self):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((5, 12, 12)) + 12 * np.eye(12)
        I = rng.standard_normal((5, 12))
        got = sparse_solve_batch(G, I)
        want = np.linalg.solve(G, I[:, :, None])[:, :, 0]
        np.testing.assert_allclose(got, want, atol=SPARSE_ATOL, rtol=1e-9)

    def test_singular_raises_linalgerror(self):
        G = np.zeros((3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            sparse_solve(G, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            sparse_solve_batch(G[None], np.ones((1, 3)))


# -- random RC topologies through the full transient engine ------------------


def _rc_ladder(r_values, c_values) -> Circuit:
    """A driven RC ladder — one stage per (R, C) pair."""
    c = Circuit("ladder")
    c.add(Vpulse("VIN", "n0", "0", v1=0.0, v2=1.0, rise=1e-9,
                 fall=1e-9, width=40e-9, period=100e-9))
    for k, (r, cap) in enumerate(zip(r_values, c_values)):
        c.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", r))
        c.add(Capacitor(f"C{k}", f"n{k + 1}", "0", cap))
    return c


@needs_scipy
class TestRandomTopologies:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(stages=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_transient_sparse_matches_dense(self, stages, seed):
        rng = np.random.default_rng(seed)
        r = 10 ** rng.uniform(2, 5, stages)         # 100 ohm .. 100 k
        cap = 10 ** rng.uniform(-13, -11, stages)   # 0.1 pF .. 10 pF
        dense = transient(_rc_ladder(r, cap), 50e-9, 1e-9, solver="dense")
        sparse = transient(_rc_ladder(r, cap), 50e-9, 1e-9,
                           solver="sparse")
        assert np.array_equal(dense.t, sparse.t)
        np.testing.assert_allclose(sparse.X, dense.X, atol=SPARSE_ATOL)


# -- batched paths == scalar paths -------------------------------------------


# The transistor model runs on numpy alone: the dense-backend runs below
# need no scipy; only the explicit ``solver="sparse"`` one does.
class TestBatchedEquivalence:
    def test_ramp_family_batched_bit_identical_to_scalar(self):
        from repro.experiments.ext_dynamic_supply import (
            IC_OUT,
            RAMP_TARGETS,
            _build,
            _run_family,
        )

        t_ramp = 16e-9          # a short ramp keeps the test cheap;
        dt = 2e-9 / 40          # the solver path is the full one
        scalar = reference("ramp_family")
        assert IC_OUT == scalar[0].X[0, _build(t_ramp).node_index("out")]
        circuits = [_build(t_ramp, v_end) for v_end in RAMP_TARGETS]
        batched = _run_family(circuits, t_ramp, dt, solver="auto")
        assert len(scalar) == len(batched) == len(RAMP_TARGETS)
        for s, b in zip(scalar, batched):
            assert np.array_equal(s.t, b.t)
            assert np.array_equal(s.X, b.X)

    def test_jacobian_batched_shooting_bit_identical(self):
        # The 54-transistor adder: one-point shooting reproduces the
        # recorded scalar run, and a one-point shooting_batch equals it
        # exactly — same iterates, same waves, same averages.
        adder = WeightedAdder(AdderConfig())
        circuit = adder.build_circuit((0.2, 0.6, 0.8), (5, 6, 7))
        period = 1.0 / adder.config.frequency
        assert shooting_jacobian_batched is shooting
        (ref,) = reference("adder_shooting")
        got = shooting_batch([circuit], period, observe=["out"],
                             steps_per_period=40).point(0)
        assert got.iterations == ref.iterations
        assert got.residual == ref.residual
        assert np.array_equal(got.waves.t, ref.waves.t)
        assert np.array_equal(got.waves.X, ref.waves.X)
        assert got.average("out") == ref.average("out")

    def test_supply_sweep_stack_bit_identical_to_scalar(self):
        adder = WeightedAdder(AdderConfig())
        period = 1.0 / adder.config.frequency
        vdds = (1.5, 2.5, 4.0)
        circuits = [adder.build_circuit((0.7, 0.8, 0.9), (7, 7, 7),
                                        vdd=v) for v in vdds]
        batch = shooting_batch(circuits, period, observe=["out"],
                               steps_per_period=40)
        for p, ref in enumerate(reference("adder_supply_sweep")):
            assert batch.averages("out")[p] == ref.average("out")

    @needs_scipy
    def test_adder_pss_sparse_within_pinned_tolerance(self):
        adder = WeightedAdder(AdderConfig())
        dense = adder.evaluate((0.2, 0.6, 0.8), (5, 6, 7), engine="spice",
                               steps_per_period=40, solver="dense")
        sparse = adder.evaluate((0.2, 0.6, 0.8), (5, 6, 7), engine="spice",
                                steps_per_period=40, solver="sparse")
        assert abs(dense.value - sparse.value) < SPARSE_ATOL


# -- ragged lock-step == one lane at a time ----------------------------------


def _assert_pss_equal(case, make, periods, steps, observe=("out",)):
    """``shooting_batch`` over the family equals the one-point
    ``shooting`` runs of reference ``case`` bit for bit: waves, step
    halvings, iterations and residuals."""
    refs = reference(case)
    got = shooting_batch([make(p) for p in range(len(periods))], periods,
                         observe=list(observe), steps_per_period=steps)
    for p, ref in enumerate(refs):
        lane = got.point(p)
        assert np.array_equal(lane.waves.t, ref.waves.t)
        assert np.array_equal(lane.waves.X, ref.waves.X)
        assert lane.waves.halvings == ref.waves.halvings
    assert np.array_equal(got.iterations, [r.iterations for r in refs])
    assert np.array_equal(got.residuals, [r.residual for r in refs])
    return refs


class TestRaggedBitIdentity:
    """Points with their own source timing, periods and step counts
    share one ragged lock-step run and still equal their one-lane
    runs."""

    def test_fig4_grid(self):
        points = fig4_points()
        _assert_pss_equal("fig4_grid",
                          lambda p: cell(points[p][0], rout=points[p][1]),
                          np.full(len(points), 2e-9),
                          np.full(len(points), 40))

    def test_fig5_grid(self):
        _assert_pss_equal("fig5_grid",
                          lambda p: cell(FIG5_POINTS[p][0],
                                         frequency=FIG5_POINTS[p][1]),
                          np.array([1.0 / f for _, f in FIG5_POINTS]),
                          np.full(len(FIG5_POINTS), 40))

    def test_multifreq_cases_mixed_step_counts(self):
        make, periods, steps = multifreq_setup()
        assert len(set(steps.tolist())) > 1
        _assert_pss_equal("multifreq", make, periods, steps)

    def test_forced_halving_stays_in_its_lane(self):
        # A 300 V input ramp is too steep even for the graded steps at
        # its edges: that point halves its steps, its neighbours do not.
        def make(p):
            return cell(0.5, amplitude=HALVING_AMPLITUDES[p])

        refs = _assert_pss_equal("halving_shooting", make,
                                 np.full(3, 2e-9), np.full(3, 40))
        assert len(refs[1].waves.t) > len(refs[0].waves.t)

        with telemetry.session() as rt:
            scalar = reference("halving_transient")
        with telemetry.session() as rt_batch:
            batch = BatchTransientSolver([make(p) for p in range(3)]).run(
                2e-9, 2e-9 / 40)
        assert scalar[1].halvings > 0
        assert [s.halvings for s in scalar] == [0, scalar[1].halvings, 0]
        assert batch.halvings.tolist() == [s.halvings for s in scalar]
        for p, s in enumerate(scalar):
            assert np.array_equal(batch.point(p).t, s.t)
            assert np.array_equal(batch.point(p).X, s.X)
        for name in ("repro_mna_steps_total",
                     "repro_mna_step_halvings_total"):
            assert (rt.registry.counter(name).value()
                    == rt_batch.registry.counter(name).value() > 0)


# -- capability + knob error surfaces ----------------------------------------


class TestErrorSurfaces:
    def test_dynamic_supply_gate_names_experiment_and_engine(self):
        from repro.experiments.ext_dynamic_supply import run

        with pytest.raises(
                AnalysisError,
                match="experiment 'ext_dynamic_supply': engine 'rc' does "
                      "not support dynamic_supply"):
            run(engine="rc")

    def test_robustness_gate_names_experiment_and_engine(self):
        from repro.engines import require_capability

        with pytest.raises(
                AnalysisError,
                match="experiment 'ext_robustness': unknown engine "
                      "'nope'"):
            require_capability("nope", "serving_margins",
                               experiment_id="ext_robustness")

    def test_resolve_solver_rejects_non_transistor_engines(self):
        from repro.exec.batch import resolve_solver

        assert resolve_solver("auto", engine_id="rc") == "auto"
        assert resolve_solver("dense", engine_id="spice") == "dense"
        with pytest.raises(AnalysisError,
                           match="only applies to transistor-level"):
            resolve_solver("dense", engine_id="rc")

    def test_experiment_solver_knob_is_validated(self):
        from repro.experiments import RunConfig

        with pytest.raises(AnalysisError, match="must be one of"):
            RunConfig.build("table2", "fast", {"solver": "turbo"})


# -- the served transistor path ----------------------------------------------


class TestServedSpiceMargins:
    def _server(self, tmp_path):
        from repro.core.perceptron import DifferentialPwmPerceptron
        from repro.serve import AsyncPerceptronServer
        from repro.serve.artifacts import ModelStore

        store = ModelStore(tmp_path)
        store.save("m", DifferentialPwmPerceptron([3, 3], bias=-3))
        return AsyncPerceptronServer(store, workers=0)

    @staticmethod
    def _predict(server, payload):
        """POST one /predict payload; ``(status, decoded body)``."""
        request = urllib.request.Request(
            server.url + "/predict", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=120) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def test_predict_round_trip_spice(self, tmp_path):
        with self._server(tmp_path) as server:
            _, beh = self._predict(
                server, {"model": "m", "inputs": [[0.9, 0.9]]})
            status, out = self._predict(
                server, {"model": "m", "inputs": [[0.9, 0.9]],
                         "engine": "spice", "solver": "dense"})
            assert status == 200
            assert out["engine"] == "spice"
            assert out["solver"] == "dense"
            assert out["predictions"] == beh["predictions"]
            assert abs(out["margins"][0] - beh["margins"][0]) < 0.05

    def test_predict_rejects_solver_on_behavioral(self, tmp_path):
        with self._server(tmp_path) as server:
            status, body = self._predict(
                server, {"model": "m", "inputs": [[0.5, 0.5]],
                         "solver": "dense"})
            assert status == 400
            assert "only applies to transistor-level" in body["error"]
            status, body = self._predict(
                server, {"model": "m", "inputs": [[0.5, 0.5]],
                         "solver": 3})
            assert status == 400 and "solver" in body["error"]

    def test_supply_sweep_spice_matches_per_point_margins(self, tmp_path):
        from repro.core.perceptron import DifferentialPwmPerceptron
        from repro.serve.engine import BatchInferenceEngine

        p = DifferentialPwmPerceptron([3, 3], bias=-3)
        engine = BatchInferenceEngine()
        vdds = [1.5, 2.5]
        sweep = engine.predict_supply_sweep(p, [0.9, 0.9], vdds,
                                            engine="spice")
        per_point = [
            int(engine.margins_spice(p, [[0.9, 0.9]], vdd=v)[0]
                > p.comparator.offset)
            for v in vdds]
        assert list(sweep) == per_point
