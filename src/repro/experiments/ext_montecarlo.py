"""Extension — adder error under process mismatch (Monte Carlo + corners).

The paper calls its adder errors "affordable" for an inherently
approximate perceptron.  This experiment quantifies the additional error
from device mismatch: Pelgrom-scaled per-cell threshold/transconductance
variation through the switch-level engine, plus global process corners.

The campaign runs on the vectorised ensemble engine
(:mod:`repro.exec.batch`) — one batched RC solve per workload row; the
golden-artifact suite pins its output.
"""

from __future__ import annotations

from ..analysis.robustness import adder_corner_errors, adder_monte_carlo
from ..core.weighted_adder import AdderConfig, WeightedAdder
from ..reporting.tables import Table
from .base import ExperimentResult
from .spec import Param, experiment, seed_param
from .table2_adder import PAPER_ROWS

EXPERIMENT_ID = "ext_montecarlo"
TITLE = "Adder output error under mismatch (Monte Carlo) and corners"


@experiment(
    "ext_montecarlo", title=TITLE,
    tags=("extension", "monte-carlo", "mismatch"),
    params=[
        seed_param(3),
        # Every spelling runs the one batched path.  The Param (and its
        # wording, pinned by the GET /experiments wire fixture) stays:
        # RunConfig keys of stored results and campaign axes include it.
        Param("method", "str", default="auto",
              choices=("auto", "loop", "vectorized"),
              help="Monte-Carlo backend: batched 'vectorized', "
                   "scalar 'loop', or 'auto'"),
    ])
def run(fidelity: str = "fast", seed: int = 3,
        method: str = "auto") -> ExperimentResult:
    del method  # one batched path serves every spelling
    n_trials = 200 if fidelity == "paper" else 25
    adder = WeightedAdder(AdderConfig())

    table = Table(["workload", "nominal (V)", "sigma (mV)",
                   "worst |err| (mV)", "p99 |err| (mV)"],
                  title=f"Monte Carlo, {n_trials} trials/row")
    metrics = {}
    rows = PAPER_ROWS if fidelity == "paper" else PAPER_ROWS[:3]
    for i, row in enumerate(rows):
        stats = adder_monte_carlo(adder, row.duties, row.weights,
                                  n_trials=n_trials, seed=seed + i)
        nominal = adder.evaluate(row.duties, row.weights, engine="rc").value
        table.add_row(
            f"DC={tuple(int(d * 100) for d in row.duties)} W={row.weights}",
            nominal, stats.std_error * 1e3, stats.worst_error * 1e3,
            stats.percentile(99) * 1e3)
        metrics[f"sigma_mV[row{i}]"] = stats.std_error * 1e3
        metrics[f"worst_mV[row{i}]"] = stats.worst_error * 1e3

    corners = adder_corner_errors(adder, PAPER_ROWS[0].duties,
                                  PAPER_ROWS[0].weights)
    corner_table = Table(["corner", "delta vs TT (mV)"],
                         title="Process corners, Table II row 1")
    for name, delta in corners.items():
        corner_table.add_row(name.upper(), delta * 1e3)
    metrics.update({f"corner_mV[{k}]": v * 1e3 for k, v in corners.items()})

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, fidelity=fidelity,
        table=table, extra_tables=[corner_table], metrics=metrics)
    result.notes.append(
        "Mismatch sigmas in the few-mV range against ~0.1 V systematic "
        "engine deviations support the paper's 'errors are affordable' "
        "position; the binary-weighted sizing helps because the "
        "higher-significance cells are wider and hence better matched.")
    return result
