"""Benchmark the sparse/stacked MNA paths added with the solver knob.

Three workloads:

* the supply-ramp **waveform family** of ``ext_dynamic_supply`` — one
  lock-step :class:`~repro.circuit.batch_transient.BatchTransientSolver`
  run of four lanes vs one one-lane ``transient`` per ramp
  (bit-identical);
* the **dense/sparse crossover** — one big RC ladder (past
  ``SPARSE_MIN_SIZE`` unknowns at MNA-typical fill) integrated through
  both linear backends;
* the north-star **spice-backed ``/predict`` margin round-trip** — a
  full HTTP ``POST /predict`` to
  :class:`~repro.serve.aio_server.AsyncPerceptronServer` with
  ``engine="spice"``, payload to margins.

All three are registered with :mod:`repro.perf` (``script.sparse.*``,
report kind) for history tracking via ``repro perf run --bench-dir
benchmarks``.

Writes ``benchmarks/BENCH_sparse_mna.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_sparse_mna.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.circuit import Capacitor, Circuit, Resistor, Vpulse, transient
from repro.circuit.sparse import HAS_SCIPY, SPARSE_MIN_SIZE
from repro.experiments.ext_dynamic_supply import (
    FREQUENCY,
    IC_OUT,
    RAMP_TARGETS,
    _build,
    _run_family,
)
from repro.perf import benchmark, best_of_with_result, finish, host_fields

OUT = Path(__file__).parent / "BENCH_sparse_mna.json"

#: Timing repetitions; the minimum is reported (least-noise estimator).
REPEATS = 3

@benchmark("script.sparse.ramp_family",
           title="supply-ramp waveform family: stacked vs per-ramp loop",
           kind="report", metric="speedup", unit="x",
           lower_is_better=False, noise=0.6, tags=("script", "sparse"))
def bench_ramp_family(quick: bool = False) -> dict:
    """ext_dynamic_supply's waveform family: stacked vs per-ramp loop."""
    n_windows, periods_per_window = (4, 4) if quick else (14, 8)
    repeats = 1 if quick else REPEATS
    period = 1.0 / FREQUENCY
    t_ramp = n_windows * periods_per_window * period
    dt = period / 40

    def per_ramp():
        return [transient(_build(t_ramp, v_end), t_ramp, dt,
                          ic={"out": IC_OUT}, uic=True)
                for v_end in RAMP_TARGETS]

    def batched():
        circuits = [_build(t_ramp, v_end) for v_end in RAMP_TARGETS]
        return _run_family(circuits, t_ramp, dt, solver="auto")

    batched()  # warm caches before timing
    t_loop, loop = best_of_with_result(per_ramp, repeats)
    t_batch, batch = best_of_with_result(batched, repeats)
    identical = all(np.array_equal(s.X, b.X) and np.array_equal(s.t, b.t)
                    for s, b in zip(loop, batch))
    return {
        "workload": "ext_dynamic_supply supply-ramp waveform family",
        "fidelity": "fast",
        "n_waveforms": len(RAMP_TARGETS),
        "per_ramp_loop_seconds": round(t_loop, 4),
        "batched_mna_seconds": round(t_batch, 4),
        "speedup": round(t_loop / t_batch, 2),
        "results_bit_identical": bool(identical),
    }


def _big_ladder(stages: int) -> Circuit:
    c = Circuit("big_ladder")
    c.add(Vpulse("VIN", "n0", "0", v1=0.0, v2=1.0, rise=1e-9, fall=1e-9,
                 width=40e-9, period=100e-9))
    rng = np.random.default_rng(7)
    for k in range(stages):
        c.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}",
                       float(10 ** rng.uniform(3, 4))))
        c.add(Capacitor(f"C{k}", f"n{k + 1}", "0",
                        float(10 ** rng.uniform(-13, -12))))
    return c


@benchmark("script.sparse.crossover",
           title="dense vs sparse linear backend on a big RC ladder",
           kind="report", metric="dense_seconds", unit="s",
           lower_is_better=True, noise=1.0, tags=("script", "sparse"))
def bench_sparse_crossover(quick: bool = False) -> dict:
    """One big RC ladder through the dense and sparse backends."""
    stages = 3 * SPARSE_MIN_SIZE  # comfortably past the crossover
    t_stop, dt = (8e-9, 0.5e-9) if quick else (20e-9, 0.5e-9)

    def run(solver: str):
        return transient(_big_ladder(stages), t_stop, dt, solver=solver)

    t_dense, dense = best_of_with_result(lambda: run("dense"), 1)
    t_sparse, sparse = best_of_with_result(lambda: run("sparse"), 1) \
        if HAS_SCIPY else (None, None)
    out = {
        "workload": f"{stages}-stage RC ladder transient "
                    f"({stages + 1} unknowns)",
        "scipy_available": HAS_SCIPY,
        "dense_seconds": round(t_dense, 4),
    }
    if HAS_SCIPY:
        out.update({
            "sparse_seconds": round(t_sparse, 4),
            "speedup": round(t_dense / t_sparse, 2),
            "max_abs_delta": float(np.max(np.abs(dense.X - sparse.X))),
            "auto_picks_sparse": True,
        })
    return out


@benchmark("script.sparse.predict",
           title="spice-backed /predict margin round-trip",
           kind="report", metric="round_trip_seconds", unit="s",
           lower_is_better=True, noise=1.0, tags=("script", "sparse"))
def bench_predict_round_trip(quick: bool = False) -> dict:
    """North star: spice-backed served margins, payload to response."""
    import json
    import tempfile
    import urllib.request

    from repro.core.perceptron import DifferentialPwmPerceptron
    from repro.serve import AsyncPerceptronServer
    from repro.serve.artifacts import ModelStore

    repeats = 1 if quick else REPEATS
    payload = {"model": "m", "inputs": [[0.9, 0.9]], "engine": "spice"}
    with tempfile.TemporaryDirectory() as tmp:
        store = ModelStore(tmp)
        store.save("m", DifferentialPwmPerceptron([3, 3], bias=-3))
        with AsyncPerceptronServer(store, workers=0) as server:
            def post(body):
                request = urllib.request.Request(
                    server.url + "/predict", data=json.dumps(body).encode(),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=120) as r:
                    return json.loads(r.read())

            behavioral = post({**payload, "engine": "behavioral"})
            t_spice, spice = best_of_with_result(
                lambda: post(payload), repeats)
    return {
        "workload": "POST /predict, one row, engine=spice",
        "round_trip_seconds": round(t_spice, 4),
        "margin_volts": round(spice["margins"][0], 6),
        "behavioral_margin_volts": round(behavioral["margins"][0], 6),
        "margin_delta_volts": round(
            abs(spice["margins"][0] - behavioral["margins"][0]), 6),
        "predictions_agree":
            spice["predictions"] == behavioral["predictions"],
    }


def main() -> None:
    payload = {
        "description": "sparse/stacked MNA benchmarks: the supply-ramp "
                       "waveform family as one lock-step batched solve, "
                       "the dense/sparse linear-backend crossover, and "
                       "the spice-backed /predict margin round-trip",
        **host_fields(),
        "benchmarks": [bench_ramp_family(), bench_sparse_crossover(),
                       bench_predict_round_trip()],
    }
    finish(OUT, payload)


if __name__ == "__main__":
    main()
