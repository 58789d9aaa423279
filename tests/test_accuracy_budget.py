"""The transistor-level goldens stay within their accuracy budget
(``tests/accuracy_budget.py``): checked from the committed files, with
nothing re-run.  The slow-marked test re-runs the references."""

import pytest

from tests.accuracy_budget import (EXPERIMENTS, SLACK, TIME_EXPERIMENTS,
                                   _budget, check, distance,
                                   reference_cells)

#: How far a re-run reference may sit from the recorded one, volts
#: (scaled to each cell's unit like its slack).  On one host a re-run is
#: bit-identical; this leaves room for another host's LAPACK rounding
#: and is 70 times below the 0.07 mV by which fig4's time reference
#: (16x steps) differs from a 32x one.
RERUN_TOL = 1e-6


@pytest.mark.parametrize("experiment_id",
                         sorted(set(EXPERIMENTS) | set(TIME_EXPERIMENTS)))
def test_goldens_within_budget(experiment_id):
    assert check(experiment_id) == []


@pytest.mark.slow
@pytest.mark.parametrize("experiment_id",
                         sorted(set(EXPERIMENTS) | set(TIME_EXPERIMENTS)))
def test_references_rerun(experiment_id):
    budget = _budget(experiment_id)
    for key, time in (("reference", False), ("time_reference", True)):
        recorded = {where: cell[key] for where, cell in budget.items()
                    if key in cell}
        if not recorded:
            continue
        rerun = reference_cells(experiment_id, time=time)
        far = {where: (value, rerun[where][0])
               for where, value in recorded.items()
               if distance(rerun[where][0], value)
               > rerun[where][1] * RERUN_TOL / SLACK}
        assert not far, f"{key}: {far}"
