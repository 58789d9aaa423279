#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Equivalent to the benchmark suite but as a plain script: runs all seven
paper artefacts (Table I, Figs. 4-8, Table II) plus the extension
experiments, prints each in paper-like form and exports CSVs next to
this script.

Run:  python examples/reproduce_paper.py [fast|paper]

``fast`` (default) uses coarse grids / the RC engine where possible and
finishes in well under a minute; ``paper`` runs the transistor-level
grids used for EXPERIMENTS.md (a few minutes).
"""

import sys
import time
from pathlib import Path

from repro.experiments import PAPER_ARTEFACTS, REGISTRY, RunConfig, run_config
from repro.reporting import figure_to_csv, table_to_csv

OUT_DIR = Path(__file__).parent / "paper_artifacts"


def main() -> None:
    fidelity = sys.argv[1] if len(sys.argv) > 1 else "fast"
    OUT_DIR.mkdir(exist_ok=True)
    ids = list(PAPER_ARTEFACTS) + [
        eid for eid in REGISTRY if eid not in PAPER_ARTEFACTS
    ]
    print(f"Reproducing {len(ids)} artefacts at fidelity={fidelity!r}\n")
    t_start = time.time()
    for eid in ids:
        t0 = time.time()
        result = run_config(RunConfig.build(eid, fidelity))
        elapsed = time.time() - t0
        print(result.render(charts=False))
        print(f"[{eid} took {elapsed:.1f}s]\n")
        if result.table is not None:
            table_to_csv(result.table, OUT_DIR / f"{eid}.csv")
        for figure in result.figures:
            figure_to_csv(figure, OUT_DIR / f"{figure.figure_id}.csv")
    print(f"Done in {time.time() - t_start:.1f}s; CSVs in {OUT_DIR}/")


if __name__ == "__main__":
    main()
