"""Benchmark harness shared helpers.

Each benchmark regenerates one paper artefact at ``paper`` fidelity via
``benchmark.pedantic`` (one round — these are minutes-scale simulations,
not microbenchmarks), prints the same rows/series the paper reports, and
writes artefacts (rendered text + CSV) under ``benchmarks/artifacts/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import RunConfig, run_config
from repro.reporting import figure_to_csv, table_to_csv

ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def run_and_record(benchmark, experiment_id: str, *, fidelity: str = "paper",
                   **kwargs):
    """Run an experiment under the benchmark timer and persist artefacts."""
    result = benchmark.pedantic(
        lambda: run_config(RunConfig.build(experiment_id, fidelity, kwargs)),
        rounds=1, iterations=1)
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    rendered = result.render(charts=True)
    (ARTIFACT_DIR / f"{experiment_id}.txt").write_text(rendered + "\n")
    if result.table is not None:
        table_to_csv(result.table, ARTIFACT_DIR / f"{experiment_id}.csv")
    for figure in result.figures:
        figure_to_csv(figure, ARTIFACT_DIR / f"{figure.figure_id}.csv")
    print()
    print(rendered)
    return result


@pytest.fixture
def record(benchmark):
    """``record("fig4")`` → run, print and persist the artefact."""
    def _run(experiment_id: str, **kwargs):
        return run_and_record(benchmark, experiment_id, **kwargs)
    return _run
