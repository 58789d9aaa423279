"""The built-in benchmark suite: one hot path per subsystem.

Every benchmark here is **quick-capable** (sized to finish in well
under a second per repeat with ``--quick`` on a single-core CI runner)
and tagged ``gate`` so ``repro perf gate`` exercises the whole stack
by default: circuit (shooting PSS, one-lane and four-lane runs of the
lock-step MNA stepper), exec (vectorised Monte-Carlo), serving
(batched inference plus closed-loop HTTP load generation against the
asyncio server), and the SQLite store (indexed axis query).  Workload factories do all setup outside
the timed region; the returned callables traverse the instrumented
spans (``adder.evaluate`` → ``pss.shooting_batch`` →
``mna.transient.batch`` → ``mna.newton``, …), which is what makes gate
span-attribution meaningful.

Absolute-seconds benchmarks carry wide noise bands (100%) because the
committed baseline is measured on a different machine than any given
CI runner.  The heavyweight end-to-end numbers stay in the
``benchmarks/bench_*.py`` scripts (registered separately as
``script.*`` report benchmarks).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from .registry import benchmark


def _ladder(stages: int):
    """A deterministic RC ladder driven by a pulse source."""
    from ..circuit import Capacitor, Circuit, Resistor, Vpulse

    c = Circuit("perf_ladder")
    c.add(Vpulse("VIN", "n0", "0", v1=0.0, v2=1.0, rise=1e-9, fall=1e-9,
                 width=40e-9, period=100e-9))
    rng = np.random.default_rng(11)
    for k in range(stages):
        c.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}",
                       float(10 ** rng.uniform(3, 4))))
        c.add(Capacitor(f"C{k}", f"n{k + 1}", "0",
                        float(10 ** rng.uniform(-13, -12))))
    return c


@benchmark("pss.shooting.adder",
           title="3-input weighted adder via the spice shooting PSS",
           tags=("gate", "circuit"), repeats=3, warmup=1,
           quick_repeats=2, noise=1.0,
           description="WeightedAdder.evaluate(engine='spice'): the "
                       "transistor netlist through shooting PSS, the "
                       "paper's core analogue compute primitive.")
def _pss_shooting_adder(quick: bool = False):
    from ..core.weighted_adder import AdderConfig, WeightedAdder

    adder = WeightedAdder(AdderConfig())
    steps = 12 if quick else 24

    def workload():
        return adder.evaluate((0.2, 0.6, 0.8), (5, 6, 7),
                              engine="spice", steps_per_period=steps)

    return workload


@benchmark("mna.transient.ladder",
           title="RC-ladder transient through the MNA engine",
           tags=("gate", "circuit"), repeats=3, warmup=1,
           quick_repeats=2, noise=1.0,
           description="transient() of a pulse-driven RC ladder: a "
                       "one-lane run of the lock-step MNA stepper, so "
                       "its fixed per-step cost (step plan, companion "
                       "updates, Newton bookkeeping) on the dense "
                       "linear backend.")
def _mna_transient_ladder(quick: bool = False):
    from ..circuit import transient

    stages = 12 if quick else 24
    circuit = _ladder(stages)
    t_stop, dt = 10e-9, 0.5e-9
    transient(circuit, t_stop, dt)   # warm any lazy assembly caches

    def workload():
        return transient(circuit, t_stop, dt)

    return workload


@benchmark("mna.batch_transient.cell",
           title="4-lane lock-step transient of the Fig. 2 cell",
           tags=("gate", "circuit"), repeats=3, warmup=1,
           quick_repeats=2, noise=1.0,
           description="BatchTransientSolver over ext_dynamic_supply's "
                       "four supply-ramp cells: the batched Newton "
                       "stepper (device evaluation, stamps, lock-step "
                       "Newton) under every transistor-level "
                       "experiment.")
def _mna_batch_transient_cell(quick: bool = False):
    from ..experiments.ext_dynamic_supply import (
        FREQUENCY,
        RAMP_TARGETS,
        _build,
        _run_family,
    )

    t_stop = (2 if quick else 6) / FREQUENCY
    dt = 1.0 / FREQUENCY / 40
    circuits = [_build(t_stop, v_end) for v_end in RAMP_TARGETS]

    def workload():
        return _run_family(circuits, t_stop, dt, solver="auto")

    return workload


@benchmark("exec.montecarlo.vectorized",
           title="vectorised Monte-Carlo mismatch batch",
           tags=("gate", "exec"), repeats=3, warmup=1,
           quick_repeats=2, noise=1.0,
           description="adder_monte_carlo on one Table II row: every "
                       "trial in one batched switch-level solve.")
def _exec_montecarlo_vectorized(quick: bool = False):
    from ..analysis import adder_monte_carlo
    from ..core.weighted_adder import AdderConfig, WeightedAdder
    from ..experiments.table2_adder import PAPER_ROWS

    adder = WeightedAdder(AdderConfig())
    row = PAPER_ROWS[0]
    n_trials = 40 if quick else 200

    def workload():
        return adder_monte_carlo(adder, row.duties, row.weights,
                                 n_trials=n_trials, seed=3)

    return workload


@benchmark("serve.batch_predict",
           title="batched perceptron inference (serve engine)",
           tags=("gate", "serve"), repeats=5, warmup=1,
           quick_repeats=3, noise=1.0,
           description="BatchInferenceEngine.predict on a uniform "
                       "random batch — the serving plane's vectorised "
                       "hot path.")
def _serve_batch_predict(quick: bool = False):
    from ..analysis import make_blobs
    from ..core.training import PerceptronTrainer
    from ..serve import BatchInferenceEngine

    data = make_blobs(n_per_class=30, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    model = PerceptronTrainer(2, seed=7).fit(data.X, data.y,
                                             epochs=60).perceptron
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, (128 if quick else 256, 2))
    engine = BatchInferenceEngine()
    engine.predict(model, X)         # warm

    def workload():
        return engine.predict(model, X)

    return workload


def _loadgen_model(tmp_root: str):
    """Export the blobs perceptron into a throwaway store; returns the
    store and a 4-row request payload."""
    from ..analysis import make_blobs
    from ..core.training import PerceptronTrainer
    from ..serve import ModelStore

    data = make_blobs(n_per_class=30, n_features=2, separation=0.35,
                      spread=0.09, seed=7)
    model = PerceptronTrainer(2, seed=7).fit(data.X, data.y,
                                             epochs=60).perceptron
    store = ModelStore(tmp_root)
    store.save("loadgen", model)
    return store, data.X[:4].tolist()


@benchmark("serve.loadgen.aio",
           title="asyncio /predict saturation under concurrent load",
           kind="report", metric="rows_per_s", unit="rows/s",
           lower_is_better=False, tags=("gate", "serve"), noise=1.0,
           description="Closed-loop load generation against the "
                       "asyncio server: keep-alive connections "
                       "sending 4-row /predict requests back-to-back; "
                       "tracks the serving plane's saturation rows/s.")
def _serve_loadgen_aio(quick: bool = False):
    from ..serve import AsyncPerceptronServer
    from ..serve.loadgen import run_closed_loop

    connections = 16 if quick else 64
    duration = 0.5 if quick else 2.0
    with tempfile.TemporaryDirectory(
            prefix="repro-perf-loadgen-") as tmp:
        store, inputs = _loadgen_model(tmp)
        with AsyncPerceptronServer(store, workers=0) as server:
            report = run_closed_loop(server.url, "loadgen", inputs,
                                     connections=connections,
                                     duration=duration)
    return report


@benchmark("store.indexed_query",
           title="JSON1-indexed axis query over the SQLite store",
           tags=("gate", "store"), repeats=5, warmup=1,
           quick_repeats=3, noise=1.0,
           description="StoreQuery.where('seed', '<', k).rows() "
                       "against a populated store, expression index "
                       "warm — the campaign-analysis hot path.")
def _store_indexed_query(quick: bool = False):
    from ..exec.cache import ResultCache
    from ..experiments import RunConfig, run_config
    from ..store import StoreQuery

    tmp = tempfile.TemporaryDirectory(prefix="repro-perf-store-")
    cache = ResultCache(Path(tmp.name))
    result = run_config(RunConfig.build("ext_montecarlo", "fast",
                                        {"seed": 0}))
    n_rows = 60 if quick else 150
    for k in range(n_rows):
        cache.put_config(result, RunConfig.build(
            "ext_montecarlo", "fast", {"seed": k}))
    query = StoreQuery(cache, "ext_montecarlo").where(
        "seed", "<", n_rows // 10)
    query.rows()                     # warm: builds the expression index

    def workload():
        return query.rows()

    # The tempdir (and the cache in it) must outlive the timing loop.
    workload._keepalive = (tmp, cache)
    return workload
