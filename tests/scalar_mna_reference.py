"""Recorded one-point MNA output, and the check against it.

``transient`` and ``shooting`` once ran their own scalar Newton/companion
step loop; they are now one-lane calls into the lock-step stepper.  The
cases below are every one-point run that ``tests/test_sparse_mna.py``
and ``tests/test_engines.py`` compare batched results against.  Their
output is recorded in ``tests/fixtures/scalar_mna_reference.json``:
exact step counts, halvings and shooting iterations; residuals,
averages and wave summaries (column sums, middle row, last row) as
``float.hex``.  The transient cases come from the scalar loop; the
shooting cases were re-recorded when shooting moved to the exact
period-map Jacobian and its update stop test (see :data:`SHOOTING`).

:func:`reference` reruns a case through today's ``transient``/
``shooting`` and checks it against the recording: integers exactly,
floats within ``RTOL``/``ATOL`` (LAPACK rounding may differ between
hosts; on one host the results are bit-identical).

Regenerate (only from a tree whose ``transient``/``shooting`` are the
engine the fixture should describe), from the repository root; naming
cases re-records only those and keeps the others::

    PYTHONPATH=<tree>/src python -m tests.scalar_mna_reference [CASE ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.circuit import Capacitor, Circuit, Resistor, Vdc, shooting, \
    transient
from repro.core.cells import build_transcoding_inverter_bench

FIXTURE = Path(__file__).parent / "fixtures" / "scalar_mna_reference.json"

#: Float agreement with the recording (integers must match exactly).
RTOL = 1e-9
ATOL = 1e-12

PERIOD = 1.0 / 500e6
FAST_VDD = (1.0, 2.5, 4.0)
FIG4_DUTIES = tuple(float(d) for d in np.linspace(0.1, 0.9, 5))
FIG5_POINTS = tuple((d, f) for d in (0.25, 0.5, 0.75)
                    for f in (10e6, 100e6, 1000e6))
HALVING_AMPLITUDES = (None, 80.0, None)


def cell(duty, frequency=500e6, rout=100e3, amplitude=None) -> Circuit:
    """The Fig. 2 bench at 2.5 V with a fixed PWM amplitude."""
    return build_transcoding_inverter_bench(
        duty, vdd=2.5, frequency=frequency, cout=1e-12, rout=rout,
        input_amplitude=amplitude)


def cell_bench(vdd: float, duty: float = 0.5) -> Circuit:
    """The Fig. 2 bench with the PWM amplitude tracking the rail."""
    return build_transcoding_inverter_bench(
        duty, vdd=vdd, frequency=500e6, cout=1e-12, rout=100e3,
        input_amplitude=vdd)


def rc(v: float) -> Circuit:
    c = Circuit("rc")
    c.add(Vdc("V1", "in", "0", v))
    c.add(Resistor("R1", "in", "out", "1k"))
    c.add(Capacitor("C1", "out", "0", "1u"))
    return c


def fig4_points():
    from repro.experiments.fig4_dc_transfer import ROUT_CASES

    return [(d, rout) for _, rout in ROUT_CASES for d in FIG4_DUTIES]


def multifreq_setup():
    """Circuits, periods and (mixed) step counts of ext_multifreq."""
    from repro.core.weighted_adder import (AdderConfig, WeightedAdder,
                                           common_period)
    from repro.experiments.ext_multifreq import (CASES, WORKLOAD_DUTIES,
                                                 WORKLOAD_WEIGHTS)

    adder = WeightedAdder(AdderConfig())
    periods = np.array([common_period(f) for _, f in CASES])
    steps = np.array([int(round(T * max(f) * 20))
                      for T, (_, f) in zip(periods, CASES)])

    def make(p):
        return adder.build_circuit(WORKLOAD_DUTIES, WORKLOAD_WEIGHTS,
                                   frequencies=CASES[p][1])
    return make, periods, steps


def _adder():
    from repro.core.weighted_adder import AdderConfig, WeightedAdder

    return WeightedAdder(AdderConfig())


def _ramp_family():
    from repro.experiments.ext_dynamic_supply import (IC_OUT, RAMP_TARGETS,
                                                      _build)

    t_ramp, dt = 16e-9, 2e-9 / 40
    return [transient(_build(t_ramp, v), t_ramp, dt, ic={"out": IC_OUT},
                      uic=True) for v in RAMP_TARGETS]


def _adder_shooting():
    adder = _adder()
    return [shooting(adder.build_circuit((0.2, 0.6, 0.8), (5, 6, 7)),
                     1.0 / adder.config.frequency, observe=["out"],
                     steps_per_period=40)]


def _adder_supply_sweep():
    adder = _adder()
    return [shooting(adder.build_circuit((0.7, 0.8, 0.9), (7, 7, 7),
                                         vdd=v),
                     1.0 / adder.config.frequency, observe=["out"],
                     steps_per_period=40) for v in (1.5, 2.5, 4.0)]


def _multifreq():
    make, periods, steps = multifreq_setup()
    return [shooting(make(p), float(periods[p]), observe=["out"],
                     steps_per_period=int(steps[p]))
            for p in range(len(periods))]


#: name -> zero-argument call returning the case's results, in order.
CASES = {
    "ramp_family": _ramp_family,
    "adder_shooting": _adder_shooting,
    "adder_supply_sweep": _adder_supply_sweep,
    "fig4_grid": lambda: [
        shooting(cell(d, rout=rout), 2e-9, observe=["out"],
                 steps_per_period=40) for d, rout in fig4_points()],
    "fig5_grid": lambda: [
        shooting(cell(d, frequency=f), 1.0 / f, observe=["out"],
                 steps_per_period=40) for d, f in FIG5_POINTS],
    "multifreq": _multifreq,
    "halving_shooting": lambda: [
        shooting(cell(0.5, amplitude=a), 2e-9, observe=["out"],
                 steps_per_period=40) for a in HALVING_AMPLITUDES],
    "halving_transient": lambda: [
        transient(cell(0.5, amplitude=a), 2e-9, 2e-9 / 40)
        for a in HALVING_AMPLITUDES],
    "cell_sweep_shooting": lambda: [
        shooting(cell_bench(v), PERIOD, observe=["out"],
                 steps_per_period=60) for v in FAST_VDD],
    "cell_sweep_transient": lambda: [
        transient(cell_bench(v), PERIOD, PERIOD / 60) for v in FAST_VDD],
    "timing_mismatch": lambda: [
        transient(cell_bench(2.5, duty=d), PERIOD, PERIOD / 50)
        for d in (0.3, 0.7)],
    "linear_rc": lambda: [
        transient(rc(v), 5e-3, 1e-5, ic={"out": 0.0}) for v in (1.0, 2.0)],
}


#: The cases that run shooting (the rest are plain transients).
SHOOTING = ("adder_shooting", "adder_supply_sweep", "fig4_grid",
            "fig5_grid", "multifreq", "halving_shooting",
            "cell_sweep_shooting")


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _wave(t: np.ndarray, X: np.ndarray, halvings: int) -> dict:
    return {"steps": len(t) - 1, "halvings": int(halvings),
            "t_sum": float(np.sum(t)).hex(),
            "x_sum": _hex(X.sum(axis=0)),
            "x_mid": _hex(X[len(t) // 2]), "x_last": _hex(X[-1])}


def summary(result) -> dict:
    """The recorded fields of one ``TransientResult`` or ``PssResult``."""
    if hasattr(result, "iterations"):
        waves = result.waves
        return {"iterations": int(result.iterations),
                "residual": float(result.residual).hex(),
                "average_out": float(result.average("out")).hex(),
                "waves": _wave(waves.t, waves.X, waves.halvings)}
    return _wave(result.t, result.X, result.halvings)


def _compare(got, want, where: str) -> None:
    assert got.keys() == want.keys(), where
    for key, value in want.items():
        if isinstance(value, dict):
            _compare(got[key], value, f"{where}.{key}")
        elif isinstance(value, int):
            assert got[key] == value, f"{where}.{key}"
        else:
            np.testing.assert_allclose(
                [float.fromhex(v) for v in np.atleast_1d(got[key])],
                [float.fromhex(v) for v in np.atleast_1d(value)],
                rtol=RTOL, atol=ATOL, err_msg=f"{where}.{key}")


def reference(name: str) -> list:
    """Run case ``name`` now and check it against the recording;
    returns the results for further in-process comparisons."""
    results = CASES[name]()
    recorded = json.loads(FIXTURE.read_text())[name]
    assert len(results) == len(recorded), name
    for k, (result, want) in enumerate(zip(results, recorded)):
        _compare(summary(result), want, f"{name}[{k}]")
    return results


def main(names=None) -> None:
    names = list(names or CASES)
    doc = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    doc.update({name: [summary(r) for r in CASES[name]()] for name in names})
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({', '.join(names)})")


if __name__ == "__main__":
    main(sys.argv[1:])
