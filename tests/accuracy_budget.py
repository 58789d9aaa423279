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

Regenerate (from a tree whose goldens the distances should describe;
the references come from the tree on ``PYTHONPATH``), from the
repository root::

    PYTHONPATH=<tree>/src python -m tests.accuracy_budget
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path
from typing import Dict, Iterator, List, Optional

FIXTURE = Path(__file__).parent / "fixtures" / "accuracy_budget.json"
GOLDEN_DIR = Path(__file__).parent / "golden"

#: The experiments whose numbers come from transistor-level shooting.
EXPERIMENTS = ("fig4", "fig5", "fig6", "fig7", "fig8", "table2",
               "ext_engine_fidelity", "ext_full_system", "ext_multifreq")

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


def reference_cells(experiment_id: str) -> "Dict[str, tuple]":
    """The experiment's cells at fast fidelity under tight shooting."""
    from repro.experiments import RunConfig, run_config

    with tight_shooting():
        payload = run_config(RunConfig.build(experiment_id, "fast")).to_dict()
    return cells(payload)


def check(experiment_id: str) -> List[str]:
    """What keeps the committed goldens of ``experiment_id`` out of the
    recorded budget (empty when they are within it)."""
    budget = json.loads(FIXTURE.read_text())["experiments"][experiment_id]
    gold = golden_cells(experiment_id)
    if gold.keys() != budget.keys():
        return [f"golden cells {sorted(gold.keys() ^ budget.keys())} "
                "are not in the budget"]
    now = {where: distance(gold[where][0], cell["reference"])
           for where, cell in budget.items()}
    problems = [f"{where}: {now[where]:.6g} from the reference, budget "
                f"{cell['distance']:.6g} + {cell['slack']:.3g}"
                for where, cell in sorted(budget.items())
                if now[where] > cell["distance"] + cell["slack"]]
    largest = max(cell["distance"] for cell in budget.values())
    if max(now.values()) > largest:
        problems.append(f"largest distance grew from {largest:.6g} to "
                        f"{max(now.values()):.6g}")
    return problems


def main() -> None:
    doc = {"reference_tol": REFERENCE_TOL,
           "reference_max_iterations": REFERENCE_MAX_ITERATIONS,
           "experiments": {}}
    for experiment_id in EXPERIMENTS:
        ref = reference_cells(experiment_id)
        gold = golden_cells(experiment_id)
        if ref.keys() != gold.keys():
            raise SystemExit(f"{experiment_id}: golden cells differ from "
                             "the reference run's")
        entry = {where: {"reference": ref[where][0],
                         "distance": distance(gold[where][0], ref[where][0]),
                         "slack": ref[where][1]}
                 for where in sorted(ref)}
        doc["experiments"][experiment_id] = entry
        worst = max(v["distance"] for v in entry.values())
        print(f"{experiment_id}: {len(entry)} cells, "
              f"largest distance {worst:.4g}")
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
