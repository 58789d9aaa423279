"""Golden-artifact regression suite.

Every registered experiment runs at ``fidelity="fast"`` and its full
output — tables, figure series, metrics, notes — is compared against a
committed fixture under ``tests/golden/``.  This pins the numerical
behaviour of the whole reproduction: refactors of the execution engine
(vectorisation, parallelism, caching) cannot silently drift the numbers
that back ``benchmarks/artifacts/*``.

Float comparisons are tolerance-based (``rel=1e-6``) so harmless
last-ulp changes (e.g. numpy reassociation in the vectorised
Monte-Carlo path) pass while real regressions fail.

Regenerate fixtures after an *intentional* change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_artifacts.py
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.experiments import REGISTRY, RunConfig, run_config

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"

REL_TOL = 1e-6
ABS_TOL = 1e-9


def _float(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _assert_cell(actual, expected, where: str) -> None:
    fa, fe = _float(actual), _float(expected)
    if fa is not None and fe is not None:
        assert math.isclose(fa, fe, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{where}: {actual!r} != {expected!r}")
    else:
        assert str(actual) == str(expected), (
            f"{where}: {actual!r} != {expected!r}")


def _assert_table(actual: dict, expected: dict, where: str) -> None:
    assert actual["headers"] == expected["headers"], f"{where}: headers"
    assert actual["title"] == expected["title"], f"{where}: title"
    assert len(actual["rows"]) == len(expected["rows"]), f"{where}: row count"
    for i, (arow, erow) in enumerate(zip(actual["rows"], expected["rows"])):
        assert len(arow) == len(erow), f"{where} row {i}: cell count"
        for j, (a, e) in enumerate(zip(arow, erow)):
            _assert_cell(a, e, f"{where} row {i} col {j}")


def _assert_figure(actual: dict, expected: dict, where: str) -> None:
    assert actual["figure_id"] == expected["figure_id"], where
    names_a = [s["name"] for s in actual["series"]]
    names_e = [s["name"] for s in expected["series"]]
    assert names_a == names_e, f"{where}: series names"
    for sa, se in zip(actual["series"], expected["series"]):
        w = f"{where} series {sa['name']!r}"
        assert len(sa["x"]) == len(se["x"]), f"{w}: x length"
        for a, e in zip(sa["x"], se["x"]):
            _assert_cell(a, e, f"{w} x")
        for a, e in zip(sa["y"], se["y"]):
            _assert_cell(a, e, f"{w} y")


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_golden_artifact(experiment_id: str):
    result = run_config(RunConfig.build(experiment_id, "fast"))
    payload = result.to_dict()
    path = GOLDEN_DIR / f"{experiment_id}.json"

    if UPDATE:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden fixture updated: {path.name}")

    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        "REPRO_UPDATE_GOLDEN=1")
    expected = json.loads(path.read_text())

    assert payload["experiment_id"] == expected["experiment_id"]
    assert payload["fidelity"] == expected["fidelity"]
    assert payload["title"] == expected["title"]

    assert (payload["table"] is None) == (expected["table"] is None)
    if payload["table"] is not None:
        _assert_table(payload["table"], expected["table"],
                      f"{experiment_id}.table")
    assert len(payload["extra_tables"]) == len(expected["extra_tables"])
    for k, (a, e) in enumerate(zip(payload["extra_tables"],
                                   expected["extra_tables"])):
        _assert_table(a, e, f"{experiment_id}.extra_tables[{k}]")

    assert len(payload["figures"]) == len(expected["figures"])
    for a, e in zip(payload["figures"], expected["figures"]):
        _assert_figure(a, e, f"{experiment_id}.figures")

    assert set(payload["metrics"]) == set(expected["metrics"]), (
        f"{experiment_id}: metric keys changed")
    for key, e in expected["metrics"].items():
        _assert_cell(payload["metrics"][key], e,
                     f"{experiment_id}.metrics[{key}]")

    assert payload["notes"] == expected["notes"]
