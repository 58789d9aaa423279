"""Pins on the lock-step Newton kernels: device evaluation, batched
stamps and one lock-step group per weight-pattern sweep.

* ``ids_full_vec`` must reproduce ``tests/fixtures/ids_full_vec_reference.json``:
  ``ids`` bit for bit, ``gm`` and ``gds`` within ``KERNEL_ULPS`` ulp
  (their sigmoid uses numpy's CPU-dispatched ``exp``, which may differ
  from the libm ``exp`` the fixture was recorded with by a few ulp).
  The fixture holds its inputs and outputs as ``float.hex`` strings,
  recorded from the kernel before its call count was cut: a seeded
  draw of 12 x 16 devices with alternating NMOS/PMOS columns, where
  rows 0-2 have ``vd == vs`` exactly (so ``vds`` is +0.0 for NMOS and
  -0.0 for PMOS), rows 3-5 sit in deep subthreshold
  (``z = (vgs_f - vt) / (2 n vT)`` near -25, forward and reverse), rows
  6-8 are reverse biased and rows 9-11 are random.  A forward device
  gets the same bits whether or not its batch holds a reversed one.
* The batched MOSFET and capacitor stamps must add, lane by lane, the
  same G and I bits as the scalar assembler on that lane's circuit —
  also when the lanes mix weight wirings (a weight bit ties a gate to
  the supply on one point and to ground on another).
* ``WeightedAdder.evaluate_spice`` over a weight-pattern sweep builds
  one ``BatchTransientSolver``, and each point equals its one-point
  ``shooting_batch`` run bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.calibrate import calibration_grid
from repro.circuit import (
    AnalysisError,
    BatchTransientSolver,
    Capacitor,
    Circuit,
    Resistor,
    Vdc,
    shooting_batch,
)
from repro.circuit import batch_transient
from repro.circuit.elements.base import MnaSystem
from repro.core.weighted_adder import AdderConfig, WeightedAdder
from repro.tech.mosfet_models import ids_full_vec

FIXTURE = Path(__file__).parent / "fixtures" / "ids_full_vec_reference.json"

#: Largest ulp distance of ``gm`` and ``gds`` from the fixture.
KERNEL_ULPS = 4

# The fast-fidelity operand grid of ext_engine_fidelity: four corner
# points and four random draws, with several weight patterns.
ADDER = WeightedAdder(AdderConfig())
GRID = calibration_grid(ADDER, seed=0, n_random=4)
PERIOD = 1.0 / ADDER.config.frequency


def _from_hex(rows):
    return np.array([[float.fromhex(v) for v in row] for row in rows])


def _hex(a):
    return [[float(v).hex() for v in row] for row in np.atleast_2d(a)]


def _ulps(got, ref):
    """Ulp distance of two equal-signed float64 arrays."""
    assert (np.signbit(got) == np.signbit(ref)).all()
    return np.abs(got.view(np.int64) - ref.view(np.int64))


class TestDeviceKernel:
    def test_matches_recorded_reference(self):
        doc = json.loads(FIXTURE.read_text())
        sign = np.array([float.fromhex(v) for v in doc["sign"]])
        args = {k: _from_hex(v) for k, v in doc["inputs"].items()}
        with np.errstate(all="ignore"):
            ids, gm, gds = ids_full_vec(args["vd"], args["vg"], args["vs"],
                                        sign, args["beta"], args["vt"],
                                        args["lam"], args["n_sub"])
        assert _hex(ids) == doc["outputs"]["ids"]
        for name, got in (("gm", gm), ("gds", gds)):
            ref = _from_hex(doc["outputs"][name])
            assert _ulps(got, ref).max() <= KERNEL_ULPS, name

    def test_forward_devices_ignore_a_reversed_neighbour(self):
        # A batch without a reversed device skips the source/drain
        # swap; its forward devices must match the swapped batch's.
        doc = json.loads(FIXTURE.read_text())
        sign = np.array([float.fromhex(v) for v in doc["sign"]])
        args = {k: _from_hex(v) for k, v in doc["inputs"].items()}
        signs = np.broadcast_to(sign, args["vd"].shape).ravel()
        flat = {k: v.ravel() for k, v in args.items()}
        reverse = signs * (flat["vd"] - flat["vs"]) < 0.0
        assert reverse.any() and not reverse.all()
        names = ("vd", "vg", "vs")
        params = ("beta", "vt", "lam", "n_sub")

        def kernel(pick):
            with np.errstate(all="ignore"):
                return ids_full_vec(*(flat[k][pick] for k in names),
                                    signs[pick],
                                    *(flat[k][pick] for k in params))

        forward = np.flatnonzero(~reverse)
        mixed = np.append(forward, np.flatnonzero(reverse)[0])
        alone, together = kernel(forward), kernel(mixed)
        for a, b in zip(alone, together):
            assert _hex(a) == _hex(b[:forward.size])

    def test_rows_match_the_batch(self):
        # The scalar stamp calls the kernel on 1-D device vectors, the
        # batched stamp on (B, M) stacks: elementwise, so equal bits.
        doc = json.loads(FIXTURE.read_text())
        sign = np.array([float.fromhex(v) for v in doc["sign"]])
        args = {k: _from_hex(v) for k, v in doc["inputs"].items()}
        order = ("vd", "vg", "vs")
        params = ("beta", "vt", "lam", "n_sub")
        with np.errstate(all="ignore"):
            batch = ids_full_vec(*(args[k] for k in order), sign,
                                 *(args[k] for k in params))
            for r in range(args["vd"].shape[0]):
                row = ids_full_vec(*(args[k][r] for k in order), sign,
                                   *(args[k][r] for k in params))
                for got, ref in zip(row, batch):
                    assert _hex(got) == _hex(ref[r])

    def test_covers_zero_subthreshold_and_reverse(self):
        doc = json.loads(FIXTURE.read_text())
        sign = np.array([float.fromhex(v) for v in doc["sign"]])
        args = {k: _from_hex(v) for k, v in doc["inputs"].items()}
        vds = sign * (args["vd"] - args["vs"])
        assert set(sign.tolist()) == {1.0, -1.0}
        assert (vds == 0.0).any() and np.signbit(vds[vds == 0.0]).any()
        assert (vds < 0.0).any()
        ids = _from_hex(doc["outputs"]["ids"])
        assert (np.abs(ids[3:6]) < 1e-15).all()


def _adder_circuits(points=GRID):
    return [ADDER.build_circuit(d, w) for d, w in points]


def _lane_states(solver, rng):
    """Random node voltages and branch currents, one row per point."""
    x = rng.uniform(-0.2, 2.7, (solver.n_points, solver.size))
    x[:, solver.n_nodes:] *= 1e-4
    return x


class TestBatchedStamps:
    @pytest.mark.parametrize("rows", ["all", "subset"])
    def test_mosfet_stamp_matches_scalar_per_lane(self, rows):
        solver = BatchTransientSolver(_adder_circuits())
        assert len({tuple(w) for _, w in GRID}) > 1
        rng = np.random.default_rng(7)
        x = _lane_states(solver, rng)
        mos = solver._mosfets
        mos.bind(np.arange(solver.n_points))
        lanes = (slice(None) if rows == "all"
                 else np.array([5, 0, 3], dtype=np.intp))
        picked = np.arange(solver.n_points)[lanes]
        # Non-zero bases, so the order of the adds shows in the bits.
        G = np.stack([solver.contexts[p]._G_static for p in picked])
        I_t = np.stack([solver.contexts[p]._I_static for p in picked]).T
        I_t = np.ascontiguousarray(I_t + rng.uniform(-1e-3, 1e-3,
                                                     I_t.shape))
        I_base = I_t.copy()
        xpad = np.zeros((picked.size, solver.size + 1))
        xpad[:, :-1] = x[picked]
        mos.stamp(G, I_t, xpad, lanes)
        for col, p in enumerate(picked):
            ctx = solver.contexts[p]
            G_ref = ctx._G_static.copy()
            I_ref = I_base[:, col].copy()
            x_ref = np.zeros(solver.size + 1)
            x_ref[:-1] = x[p]
            ctx.mosfet_group.stamp(G_ref, I_ref, x_ref)
            assert _hex(G[col]) == _hex(G_ref)
            assert _hex(I_t[:, col]) == _hex(I_ref)

    def test_capacitor_stamps_match_scalar_per_lane(self):
        solver = BatchTransientSolver(_adder_circuits())
        rng = np.random.default_rng(11)
        x = _lane_states(solver, rng)
        n = solver.n_points
        caps = solver._caps
        xpad = np.zeros((n, solver.size + 1))
        xpad[:, :-1] = x
        caps.init_state(xpad, np.arange(n))
        dt = rng.uniform(1e-12, 1e-11, n)
        be = np.arange(n) % 2 == 0
        geq = caps.geq(slice(None), dt, be)
        G = np.stack([ctx._G_static for ctx in solver.contexts])
        caps.add_geq_stack(G, geq, slice(None))
        I_t = np.ascontiguousarray(
            np.stack([ctx._I_static for ctx in solver.contexts]).T)
        caps.stamp_rhs(I_t, geq, be, slice(None))
        for p, ctx in enumerate(solver.contexts):
            sys = MnaSystem(ctx.n_nodes, ctx.size - ctx.n_nodes)
            sys.load_from(ctx._G_static, ctx._I_static)
            for el in ctx.reactive_elements:
                el.init_state(x[p])
                el.stamp_reactive(sys, dt[p], "be" if be[p] else "trap")
            assert _hex(G[p]) == _hex(sys.G)
            assert _hex(I_t[:, p]) == _hex(sys.I)


class TestWeightSweepGrouping:
    def test_evaluate_spice_builds_one_solver(self, monkeypatch):
        built = []
        real = batch_transient.BatchTransientSolver

        class Counting(real):
            def __init__(self, circuits, **kwargs):
                built.append(len(circuits))
                super().__init__(circuits, **kwargs)

        monkeypatch.setattr(batch_transient, "BatchTransientSolver",
                            Counting)
        ADDER.evaluate_spice([dict(duties=d, weights=w) for d, w in GRID],
                             steps_per_period=20)
        assert built == [len(GRID)]

    def test_each_point_equals_its_one_point_run(self):
        steps = 20
        batch = shooting_batch(_adder_circuits(), PERIOD, observe=["out"],
                               steps_per_period=steps)
        for p, point in enumerate(GRID):
            ref = shooting_batch(_adder_circuits([point]), PERIOD,
                                 observe=["out"], steps_per_period=steps)
            got = batch.point(p)
            assert np.array_equal(got.waves.t, ref.point(0).waves.t)
            assert np.array_equal(got.waves.X, ref.point(0).waves.X)
            assert batch.iterations[p] == ref.iterations[0]
            assert batch.residuals[p] == ref.residuals[0]

    def test_other_terminals_still_split_structure(self):
        # Only MOSFET and capacitor terminals may differ per point: a
        # resistor moved to another node is another structure.
        def make(node):
            c = Circuit("rc")
            c.add(Vdc("V1", "in", "0", 1.0))
            c.add(Resistor("R1", "in", "out", "1k"))
            c.add(Resistor("R2", node, "0", "1k"))
            c.add(Capacitor("C1", "out", "0", "1p"))
            return c

        with pytest.raises(AnalysisError, match="share element structure"):
            BatchTransientSolver([make("out"), make("in")])
