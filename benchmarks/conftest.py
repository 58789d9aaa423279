"""Benchmark harness shared helpers.

Each benchmark regenerates one paper artefact at ``paper`` fidelity via
``benchmark.pedantic`` (one round — these are minutes-scale simulations,
not microbenchmarks), prints the same rows/series the paper reports, and
writes artefacts (rendered text + CSV) under pytest's temporary
directory, so a test run never rewrites tracked files.  The golden
refresh switch also refreshes the committed copies::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest benchmarks/

writes them under ``benchmarks/artifacts/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import RunConfig, run_config
from repro.reporting import figure_to_csv, table_to_csv

ARTIFACT_DIR = Path(__file__).parent / "artifacts"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"


def run_and_record(benchmark, experiment_id: str, *, out_dir: Path,
                   fidelity: str = "paper", **kwargs):
    """Run an experiment under the benchmark timer and write its
    artefacts into ``out_dir``."""
    result = benchmark.pedantic(
        lambda: run_config(RunConfig.build(experiment_id, fidelity, kwargs)),
        rounds=1, iterations=1)
    out_dir.mkdir(parents=True, exist_ok=True)
    rendered = result.render(charts=True)
    (out_dir / f"{experiment_id}.txt").write_text(rendered + "\n")
    if result.table is not None:
        table_to_csv(result.table, out_dir / f"{experiment_id}.csv")
    for figure in result.figures:
        figure_to_csv(figure, out_dir / f"{figure.figure_id}.csv")
    print()
    print(rendered)
    return result


@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory) -> Path:
    """Where artefacts go: the committed directory under
    ``REPRO_UPDATE_GOLDEN=1``, else a per-session temporary one."""
    return ARTIFACT_DIR if UPDATE else tmp_path_factory.mktemp("artifacts")


@pytest.fixture
def record(benchmark, artifact_dir):
    """``record("fig4")`` → run, print and persist the artefact."""
    def _run(experiment_id: str, **kwargs):
        return run_and_record(benchmark, experiment_id,
                              out_dir=artifact_dir, **kwargs)
    return _run
