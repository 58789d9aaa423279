"""Extension — per-input frequency independence (the paper's Table II remark).

"The simulations have been conducted with various input frequencies in
the range from 1 MHz to 1 GHz, but the frequencies did not have any
effect on the results."  Here each adder input runs at a *different*
frequency simultaneously — a stronger version of that check — and the
transistor-level output is compared against Eq. 2 and the
equal-frequency result.
"""

from __future__ import annotations

from ..core.weighted_adder import AdderConfig, WeightedAdder, common_period
from ..reporting.tables import Table
from .base import ExperimentResult
from .spec import experiment, solver_param

EXPERIMENT_ID = "ext_multifreq"
TITLE = "Adder with a different PWM frequency on every input"
#: Largest MNA time step, as steps per period of the fastest input,
#: by fidelity.
STEPS_PER_PERIOD = {"fast": 10, "paper": 17}

WORKLOAD_DUTIES = (0.70, 0.80, 0.90)
WORKLOAD_WEIGHTS = (7, 7, 7)

#: Frequency sets with friendly common periods.  The last case pushes
#: one input to 1 GHz, where the long-channel gates' delay becomes a
#: visible fraction of the period.
CASES = (
    ("all 500 MHz", (500e6, 500e6, 500e6)),
    ("all 250 MHz", (250e6, 250e6, 250e6)),
    ("125 / 250 / 500 MHz", (125e6, 250e6, 500e6)),
    ("250 / 500 / 1000 MHz", (250e6, 500e6, 1000e6)),
)


@experiment("ext_multifreq", title=TITLE,
            tags=("extension", "frequency"),
            params=[solver_param()])
def run(fidelity: str = "fast", solver: str = "auto") -> ExperimentResult:
    steps_per_fast_period = STEPS_PER_PERIOD[fidelity]
    adder = WeightedAdder(AdderConfig())
    theory = adder.theoretical_output(WORKLOAD_DUTIES, WORKLOAD_WEIGHTS)

    table = Table(["frequencies", "common period (ns)", "Vout (V)",
                   "Eq.2 (V)", "delta (mV)"],
                  title="Transistor-level adder, Table II row 1 workload")
    metrics = {"theory": theory}
    periods = [common_period(freqs) for _, freqs in CASES]
    # One batched PSS for every case: each keeps its own timing, and
    # time resolution stays tied to its fastest input.
    results = adder.evaluate_spice(
        [dict(duties=WORKLOAD_DUTIES, weights=WORKLOAD_WEIGHTS,
              frequencies=freqs,
              steps_per_period=int(round(period * max(freqs)
                                         * steps_per_fast_period)))
         for (_, freqs), period in zip(CASES, periods)],
        solver=solver)
    values = [r.value for r in results]
    for (label, _), period, value in zip(CASES, periods, values):
        table.add_row(label, period * 1e9, value, theory,
                      (value - theory) * 1e3)
        metrics[f"vout[{label}]"] = value
    metrics["max_spread_mV"] = (max(values) - min(values)) * 1e3
    sub_500 = [v for (label, freqs), v in zip(CASES, values)
               if max(freqs) <= 500e6]
    metrics["spread_upto_500MHz_mV"] = (max(sub_500) - min(sub_500)) * 1e3

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, fidelity=fidelity,
        table=table, metrics=metrics)
    result.notes.append(
        "Up to 500 MHz, mixing frequencies across inputs moves the "
        "output by only a few millivolts — the averaging node "
        "integrates duty cycles, not frequencies, confirming the "
        "paper's remark below Table II. The 1 GHz case shows the "
        "mechanism's limit in our device model: the AND-gate delay "
        "becomes a visible fraction of the period and distorts the "
        "effective duty by a few percent.")
    return result
