"""Shooting-accuracy budget of the transistor-level goldens.

Shooting stops at a residual and update of ``tol`` (1e-4 V), and the
answer it returns can sit further than that from the periodic steady
state it approximates: the output node settles over many periods, so
the period map has an eigenvalue close to 1.  The *shooting reference*
of an experiment is its fast-fidelity output with shooting driven to
``REFERENCE_TOL`` on the same time grid, through a test-only override
of the shooting defaults (no Param, flag or environment variable).

``tests/fixtures/accuracy_budget.json`` holds, for every golden cell of
the experiments in :data:`EXPERIMENTS` that parses as a float (the way
``tests/test_golden_artifacts.py`` reads cells), the reference value
the committed golden's distance to it, and the cell's slack: the
shooting ``tol`` in the cell's unit.  :func:`check` (run by
``tests/test_accuracy_budget.py``) holds the goldens against it without
re-running anything: no experiment's largest distance may grow, and no
cell may move farther from its reference than its recorded distance
plus its slack.  So a change to the numerics may regenerate goldens only
if they end up no farther from the references than before.

The *time reference* of a transistor-level experiment
(:data:`TIME_EXPERIMENTS`) is its fast-fidelity output on a uniform
grid of :data:`TIME_REFERENCE_STEPS` steps per period, 16 times the
uniform count its goldens used before the stepper graded its steps,
with the same tight shooting.  It was recorded once, from the uniform
stepper; each cell keeps that tree's golden's distance to it as
``uniform_time_distance`` (for the record) and the committed graded
golden's as ``time_distance``, the budget: :func:`check` holds that no
experiment's largest ``time_distance`` grows, so a coarser grid fails
it.  The grid error sits at the PWM edges, so a change to the time grid
is measured against it.

Re-record (from a tree whose goldens the distances should describe;
the references come from the tree on ``PYTHONPATH``), from the
repository root::

    PYTHONPATH=<tree>/src python -m tests.accuracy_budget shooting
    PYTHONPATH=<tree>/src python -m tests.accuracy_budget time

``--keep-distances`` re-records the references and keeps the committed
distances as the budget; naming experiments re-records only those.
The slow-marked ``tests/test_accuracy_budget.py::test_references_rerun``
re-runs both references and compares them with the file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional

FIXTURE = Path(__file__).parent / "fixtures" / "accuracy_budget.json"
GOLDEN_DIR = Path(__file__).parent / "golden"

#: The experiments whose numbers come from transistor-level shooting.
EXPERIMENTS = ("fig4", "fig5", "fig6", "fig7", "fig8", "table2",
               "ext_engine_fidelity", "ext_full_system", "ext_multifreq")

#: Steps per period of each time reference: 16 times the uniform
#: fast-fidelity count of the goldens it was recorded with (80 steps per
#: input period for fig4–8 and ``ext_full_system``, 70 for
#: ``ext_engine_fidelity``, 60 per fastest period for ``ext_multifreq``,
#: 40 for ``ext_dynamic_supply``), set as the experiment module's
#: ``STEPS_PER_PERIOD["fast"]``.
TIME_REFERENCE_STEPS = {
    "fig4": 1280, "fig5": 1280, "fig6": 1280, "fig7": 1280, "fig8": 1280,
    "ext_engine_fidelity": 1120, "ext_full_system": 1280,
    "ext_multifreq": 960, "ext_dynamic_supply": 640}

#: The experiments with a time reference.
TIME_EXPERIMENTS = tuple(TIME_REFERENCE_STEPS)

#: Shooting tolerance and iteration cap of the reference runs.
REFERENCE_TOL = 1e-9
REFERENCE_MAX_ITERATIONS = 400

#: How much farther than its recorded distance a cell may move: the
#: shooting ``tol``, volts.
SLACK = 1e-4


def _float(value) -> Optional[float]:
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def slack(label: str) -> float:
    """A cell's slack in its own unit: ``SLACK`` volts, in millivolts
    where the column, series or metric is stated in mV."""
    return SLACK * 1e3 if "mV" in label else SLACK


def _table_cells(table: dict, where: str) -> Iterator:
    for i, row in enumerate(table["rows"]):
        for j, cell in enumerate(row):
            yield f"{where}[{i}][{j}]", cell, table["headers"][j]


def cells(payload: dict) -> "Dict[str, tuple]":
    """Every float-parsing cell of an experiment's ``to_dict()``, by a
    path naming where it sits: ``(value, slack)``."""
    found = []
    if payload["table"] is not None:
        found.extend(_table_cells(payload["table"], "table"))
    for k, table in enumerate(payload["extra_tables"]):
        found.extend(_table_cells(table, f"extra_tables[{k}]"))
    for figure in payload["figures"]:
        for series in figure["series"]:
            where = f"figures[{figure['figure_id']}][{series['name']}]"
            for axis in ("x", "y"):
                label = figure[f"{axis}_label"]
                found.extend((f"{where}.{axis}[{i}]", v, label)
                             for i, v in enumerate(series[axis]))
    found.extend((f"metrics[{key}]", v, key)
                 for key, v in sorted(payload["metrics"].items()))
    return {where: (_float(v), slack(label)) for where, v, label in found
            if _float(v) is not None}


def distance(a: float, b: float) -> float:
    """``|a - b|``; two NaNs (or equal infinities) are 0 apart."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b)


def golden_cells(experiment_id: str) -> "Dict[str, tuple]":
    doc = json.loads((GOLDEN_DIR / f"{experiment_id}.json").read_text())
    return cells(doc)


@contextlib.contextmanager
def tight_shooting():
    """Shooting defaults set to the reference ``tol`` and iteration
    cap for the duration (every shooting call passes through these
    two functions' defaults)."""
    from repro.circuit import batch_transient

    fns = [batch_transient.shooting_batch.__wrapped__,
           batch_transient.shooting.__wrapped__]
    saved = [dict(fn.__kwdefaults__) for fn in fns]
    try:
        for fn in fns:
            fn.__kwdefaults__.update(tol=REFERENCE_TOL,
                                     max_iterations=REFERENCE_MAX_ITERATIONS)
        yield
    finally:
        for fn, defaults in zip(fns, saved):
            fn.__kwdefaults__.clear()
            fn.__kwdefaults__.update(defaults)


@contextlib.contextmanager
def uniform_steps(experiment_id: str):
    """The experiment's fast-fidelity step count set to its
    :data:`TIME_REFERENCE_STEPS`, on a uniform grid (the ladder's first
    step is ``dt``), for the duration."""
    from repro.circuit import batch_transient
    from repro.experiments.spec import get_spec

    module = sys.modules[get_spec(experiment_id).runner.__module__]
    steps = module.STEPS_PER_PERIOD
    saved = dict(steps), batch_transient.FIRST_STEP_DIVISOR
    try:
        steps["fast"] = TIME_REFERENCE_STEPS[experiment_id]
        batch_transient.FIRST_STEP_DIVISOR = 1
        yield
    finally:
        steps.update(saved[0])
        batch_transient.FIRST_STEP_DIVISOR = saved[1]


def reference_cells(experiment_id: str,
                    time: bool = False) -> "Dict[str, tuple]":
    """The experiment's cells at fast fidelity under tight shooting, on
    its own time grid (the shooting reference) or on the time
    reference's (``time``)."""
    from repro.experiments import RunConfig, run_config

    grid = (uniform_steps(experiment_id) if time
            else contextlib.nullcontext())
    with tight_shooting(), grid:
        payload = run_config(RunConfig.build(experiment_id, "fast")).to_dict()
    return cells(payload)


def _budget(experiment_id: str) -> dict:
    return json.loads(FIXTURE.read_text())["experiments"][experiment_id]


def _largest(budget: dict, now: dict, key: str) -> List[str]:
    """A problem when the largest of ``now`` exceeds the largest
    recorded ``key`` distance."""
    largest = max(cell[key] for cell in budget.values())
    worst = max(now.values())
    return ([f"largest {key} grew from {largest:.6g} to {worst:.6g}"]
            if worst > largest else [])


def check(experiment_id: str) -> List[str]:
    """What keeps the committed goldens of ``experiment_id`` out of the
    recorded budget (empty when they are within it): per cell, the
    shooting distance plus slack; per experiment, the largest shooting
    distance and the largest time distance."""
    budget = _budget(experiment_id)
    gold = golden_cells(experiment_id)
    if gold.keys() != budget.keys():
        return [f"golden cells {sorted(gold.keys() ^ budget.keys())} "
                "are not in the budget"]
    problems: List[str] = []
    shot = {w: c for w, c in budget.items() if "reference" in c}
    if shot:
        now = {where: distance(gold[where][0], cell["reference"])
               for where, cell in shot.items()}
        problems += [f"{where}: {now[where]:.6g} from the reference, "
                     f"budget {cell['distance']:.6g} + {cell['slack']:.3g}"
                     for where, cell in sorted(shot.items())
                     if now[where] > cell["distance"] + cell["slack"]]
        problems += _largest(shot, now, "distance")
    timed = {w: c for w, c in budget.items() if "time_reference" in c}
    if timed:
        now = {where: distance(gold[where][0], cell["time_reference"])
               for where, cell in timed.items()}
        problems += _largest(timed, now, "time_distance")
    return problems


def record(kind: str, experiment_ids, keep_distances: bool) -> None:
    """Re-record the ``kind`` ("shooting" or "time") references of
    ``experiment_ids`` into the fixture, with the goldens' distances to
    them unless ``keep_distances``."""
    doc = (json.loads(FIXTURE.read_text()) if FIXTURE.exists() else
           {"reference_tol": REFERENCE_TOL,
            "reference_max_iterations": REFERENCE_MAX_ITERATIONS,
            "experiments": {}})
    ref_key, dist_key = (("time_reference", "time_distance")
                         if kind == "time" else ("reference", "distance"))
    for experiment_id in experiment_ids:
        ref = reference_cells(experiment_id, time=kind == "time")
        gold = golden_cells(experiment_id)
        if ref.keys() != gold.keys():
            raise SystemExit(f"{experiment_id}: golden cells differ from "
                             "the reference run's")
        entry = doc["experiments"].setdefault(experiment_id, {})
        for where in sorted(ref):
            cell = entry.setdefault(where, {})
            cell[ref_key] = ref[where][0]
            if not keep_distances or dist_key not in cell:
                cell[dist_key] = distance(gold[where][0], ref[where][0])
            if kind == "shooting":
                cell["slack"] = ref[where][1]
        worst = max(cell[dist_key] for cell in entry.values()
                    if dist_key in cell)
        print(f"{experiment_id}: {len(ref)} cells, largest {dist_key} "
              f"{worst:.4g}")
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m tests.accuracy_budget",
        description="Re-record the accuracy-budget references.")
    parser.add_argument("kind", choices=("shooting", "time"))
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all of the kind)")
    parser.add_argument("--keep-distances", action="store_true",
                        help="keep the committed distances as the budget")
    args = parser.parse_intermixed_args(argv)
    known = EXPERIMENTS if args.kind == "shooting" else TIME_EXPERIMENTS
    unknown = set(args.experiments) - set(known)
    if unknown:
        parser.error(f"no {args.kind} reference for {sorted(unknown)}")
    record(args.kind, args.experiments or known, args.keep_distances)


if __name__ == "__main__":
    main()
