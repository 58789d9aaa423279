"""Extension — cross-validation of the three engines, cell and adder.

DESIGN.md's fidelity ladder is only trustworthy if the engines agree
where they must.  This experiment validates the ladder at both levels:
the registry's cross-engine consistency harness
(:func:`repro.engines.fidelity.consistency_report`) sweeps the Fig. 2
cell across a shared ``(duty, vdd)`` grid through every registered
engine, and an operand grid through the behavioural, RC switch-level
and transistor-level *adder* engines reports the pairwise deviations
plus the calibration polynomial that closes the behavioural→transistor
gap.
"""

from __future__ import annotations

from ..analysis.calibrate import calibration_grid, fit_adder_calibration
from ..core.weighted_adder import AdderConfig, WeightedAdder
from ..engines.fidelity import consistency_report
from ..reporting.tables import Table
from .base import ExperimentResult
from .spec import experiment, seed_param

EXPERIMENT_ID = "ext_engine_fidelity"
TITLE = "Engine cross-validation: behavioral vs RC vs transistor level"
#: Largest MNA time step, as steps per input period, by fidelity.
STEPS_PER_PERIOD = {"fast": 12, "paper": 60}


@experiment("ext_engine_fidelity", title=TITLE,
            tags=("extension", "validation"), params=[seed_param(0)])
def run(fidelity: str = "fast", seed: int = 0) -> ExperimentResult:
    adder = WeightedAdder(AdderConfig())
    n_random = 10 if fidelity == "paper" else 4
    steps = STEPS_PER_PERIOD[fidelity]

    table = Table(["duties", "weights", "behavioral", "rc", "spice",
                   "|rc-beh| (mV)", "|spice-beh| (mV)"],
                  title="Engine agreement on an operand grid")
    worst_rc = 0.0
    worst_spice = 0.0
    # The transistor-level grid is measured once, as one batched PSS,
    # and feeds both the table and the calibration fit.
    grid = calibration_grid(adder, seed=seed, n_random=n_random)
    spices = [r.value for r in adder.evaluate_spice(
        [dict(duties=d, weights=w) for d, w in grid],
        steps_per_period=steps)]
    for (duties, weights), spice in zip(grid, spices):
        beh = adder.evaluate(duties, weights, engine="behavioral").value
        rc = adder.evaluate(duties, weights, engine="rc").value
        table.add_row(
            "/".join(f"{d:.2f}" for d in duties),
            "/".join(str(w) for w in weights),
            beh, rc, spice, abs(rc - beh) * 1e3, abs(spice - beh) * 1e3)
        worst_rc = max(worst_rc, abs(rc - beh))
        worst_spice = max(worst_spice, abs(spice - beh))

    model, residual = fit_adder_calibration(adder, grid, spices)
    # Cell-level ladder check through the engine registry: every
    # registered engine sweeps the same (duty, vdd) grid (batched MNA
    # for 'spice'), and the pairwise divergences become metrics.
    cell = consistency_report(fidelity=fidelity, steps_per_period=steps)
    cell_metrics = {f"cell_worst[{pair}]_V": value
                    for pair, value in
                    sorted(cell.pairwise_divergence().items())}
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, fidelity=fidelity,
        table=table,
        metrics={
            "worst_rc_vs_behavioral_V": worst_rc,
            "worst_spice_vs_behavioral_V": worst_spice,
            "calibration_coefficients": tuple(
                round(c, 5) for c in model.coefficients),
            "calibrated_rms_residual_V": residual,
            **cell_metrics,
        })
    result.notes.append(
        "RC tracks Eq. 2 to ~10 mV (its deviation is the PMOS/NMOS "
        "on-resistance asymmetry); the transistor engine adds gate "
        "timing effects worth up to ~0.1 V, which the fitted "
        "calibration polynomial absorbs to a few mV RMS.")
    return result
