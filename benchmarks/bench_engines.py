"""Benchmark the engine layer: batched MNA sweeps vs the per-point loop.

Times the transistor-level (``spice``) supply sweep of the Fig. 2 cell
at ``fidelity="paper"`` — the paper's 0.5–5 V grid, 150 steps/period —
through one-point ``shooting`` of each point's bench and through the
stacked :class:`~repro.circuit.batch_transient.BatchTransientSolver`
path, verifies the two agree bit for bit, and records the other engines'
timings on the same workload for the fidelity/speed ladder.  A second
case times fig4's duty x Rout grid (fast fidelity) as per-point
shooting vs one ragged lock-step ``shooting_batch``, again checked bit
for bit.  Writes ``benchmarks/BENCH_engines.json``.

All three workloads are registered with :mod:`repro.perf`
(``script.engines.*``, report kind) for history tracking via
``repro perf run --bench-dir benchmarks``.

Run with::

    PYTHONPATH=src python benchmarks/bench_engines.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.circuit.pss import shooting
from repro.core.cells import CellDesign, build_transcoding_inverter_bench
from repro.engines import CellStimulus, get_engine
from repro.experiments.fig4_dc_transfer import ROUT_CASES, measure_cells
from repro.experiments.fig6_fig7_supply import (
    DUTIES,
    FREQUENCY,
    PAPER_VDD,
    ROUT,
)
from repro.perf import benchmark, best_of_with_result, finish, host_fields

OUT = Path(__file__).parent / "BENCH_engines.json"

PAPER_STEPS = 150
#: fig4's fast-fidelity resolution.
FIG4_FAST_STEPS = 80
#: Timing repetitions; the minimum is reported (standard for
#: wall-clock microbenchmarks — it is the least noisy estimator).
REPEATS = 3


@benchmark("script.engines.spice_sweep",
           title="spice supply sweep: batched MNA vs per-point loop",
           kind="report", metric="speedup", unit="x",
           lower_is_better=False, noise=0.6,
           tags=("script", "engines"))
def bench_spice_sweep(quick: bool = False) -> dict:
    """Batched vs per-point MNA shooting on the paper supply grid."""
    vdd_grid = PAPER_VDD[:5] if quick else PAPER_VDD
    steps = 30 if quick else PAPER_STEPS
    repeats = 1 if quick else REPEATS
    spice = get_engine("spice")
    design = CellDesign()

    def per_point():
        return {duty: np.array([shooting(
            build_transcoding_inverter_bench(
                duty, design=design, vdd=v, frequency=FREQUENCY,
                input_amplitude=v, rout=ROUT),
            1.0 / FREQUENCY, observe=["out"],
            steps_per_period=steps).average("out") for v in vdd_grid])
            for duty in DUTIES}

    def batched():
        return {duty: spice.sweep_supply(
            design,
            CellStimulus(duty=duty, frequency=FREQUENCY, rout=ROUT),
            vdd_grid, steps_per_period=steps)
            for duty in DUTIES}

    # Warm the batched path once (imports, caches) before timing.
    spice.sweep_supply(design, CellStimulus(duty=0.5, rout=ROUT),
                       vdd_grid[:2], steps_per_period=steps)
    t_loop, loop = best_of_with_result(per_point, repeats)
    t_batch, batch = best_of_with_result(batched, repeats)
    identical = all(np.array_equal(loop[d], batch[d]) for d in DUTIES)
    return {
        "workload": "fig6/fig7 spice supply sweep",
        "fidelity": "paper",
        "duties": list(DUTIES),
        "n_vdd_points": len(vdd_grid),
        "steps_per_period": steps,
        "per_point_loop_seconds": round(t_loop, 4),
        "batched_mna_seconds": round(t_batch, 4),
        "speedup": round(t_loop / t_batch, 2),
        "results_bit_identical": bool(identical),
    }


@benchmark("script.engines.fig4_ragged",
           title="fig4 duty x Rout grid: one ragged batch vs per-point PSS",
           kind="report", metric="speedup", unit="x",
           lower_is_better=False, noise=0.6,
           tags=("script", "engines"))
def bench_fig4_ragged(quick: bool = False) -> dict:
    """Per-point shooting vs one ragged-timing shooting_batch."""
    duties = np.linspace(0.1, 0.9, 5)
    steps = 40 if quick else FIG4_FAST_STEPS
    repeats = 1 if quick else REPEATS
    points = [(float(d), rout, 500e6) for _, rout in ROUT_CASES
              for d in duties]

    def benches():
        return [build_transcoding_inverter_bench(
            d, vdd=2.5, frequency=f, cout=1e-12, rout=rout)
            for d, rout, f in points]

    def per_point():
        return [shooting(c, 1.0 / f, observe=["out"],
                         steps_per_period=steps)
                for c, (_, _, f) in zip(benches(), points)]

    t_loop, loop = best_of_with_result(per_point, repeats)
    t_batch, batch = best_of_with_result(
        lambda: measure_cells(points, steps_per_period=steps), repeats)
    identical = np.array_equal([r.average("out") for r in loop], batch)
    return {
        "workload": "fig4 duty x Rout grid, spice PSS",
        "fidelity": "fast",
        "n_points": len(points),
        "steps_per_period": steps,
        "per_point_loop_seconds": round(t_loop, 4),
        "ragged_batch_seconds": round(t_batch, 4),
        "speedup": round(t_loop / t_batch, 2),
        "results_bit_identical": bool(identical),
    }


@benchmark("script.engines.ladder",
           title="behavioral/rc/spice fidelity ladder sweep",
           kind="report", metric=None, noise=1.0,
           tags=("script", "engines"))
def bench_engine_ladder(quick: bool = False) -> dict:
    """All three engines on one paper-grid duty (fidelity/speed ladder)."""
    # Quick keeps 2.5 V in the grid (the ladder's probe point).
    vdd_grid = PAPER_VDD[:5] if quick else PAPER_VDD
    steps = 30 if quick else PAPER_STEPS
    repeats = 1 if quick else REPEATS
    design = CellDesign()
    stimulus = CellStimulus(duty=0.5, frequency=FREQUENCY, rout=ROUT)
    ladder = {}
    for eid in ("behavioral", "rc", "spice"):
        eng = get_engine(eid)
        options = {"steps_per_period": steps} if eid == "spice" \
            else {}
        seconds, values = best_of_with_result(
            lambda eng=eng, options=options: eng.sweep_supply(
                design, stimulus, vdd_grid, **options), repeats)
        ladder[eid] = {
            "seconds": round(seconds, 6),
            "output_at_2p5V": round(
                float(values[list(vdd_grid).index(2.5)]), 6),
        }
    return {
        "workload": "one-duty paper supply sweep per engine",
        "n_vdd_points": len(vdd_grid),
        "engines": ladder,
    }


def main() -> None:
    payload = {
        "description": "engine registry benchmarks: stacked "
                       "BatchTransientSolver MNA sweeps vs the "
                       "historical per-point shooting loop, the fig4 "
                       "grid as one ragged batch vs per-point PSS, "
                       "plus the behavioral/rc/spice fidelity ladder",
        **host_fields(),
        "benchmarks": [bench_spice_sweep(), bench_fig4_ragged(),
                       bench_engine_ladder()],
    }
    finish(OUT, payload)


if __name__ == "__main__":
    main()
