"""The transistor-level goldens stay within their shooting-accuracy
budget (``tests/accuracy_budget.py``): checked from the committed files,
with nothing re-run."""

import pytest

from tests.accuracy_budget import EXPERIMENTS, check


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_goldens_within_budget(experiment_id):
    assert check(experiment_id) == []
