"""Cross-engine consistency harness.

The fidelity ladder (behavioural → rc → spice) is only trustworthy if
the engines agree where their models overlap.  This module runs the
*same* cell operating points through every registered engine and
quantifies the pairwise divergence — the evidence behind
``ext_engine_fidelity`` and the CI engines-smoke job.

The grid is organised as duty rows × supply columns so each engine's
``sweep_grid`` does the heavy lifting (one stacked MNA solve for the
whole grid for ``spice``, one ``RcBatchSolver`` solve per duty for
``rc``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..core.cells import CellDesign
from .base import CellStimulus, engine_ids, get_engine

#: The paper's Fig. 6/7 load and drive.
DEFAULT_ROUT = 100e3
DEFAULT_FREQUENCY = 500e6
DEFAULT_COUT = 1e-12

FAST_DUTIES = (0.25, 0.5, 0.75)
FAST_VDD = (1.0, 2.5, 4.0)
PAPER_DUTIES = (0.1, 0.25, 0.5, 0.75, 0.9)
PAPER_VDD = tuple(np.arange(1.0, 4.01, 0.5))


def default_grid(fidelity: str) -> "Tuple[Tuple[float, ...], Tuple[float, ...]]":
    """The consistency grid for a fidelity: ``(duties, vdd_values)``."""
    if fidelity == "paper":
        return PAPER_DUTIES, PAPER_VDD
    return FAST_DUTIES, FAST_VDD


@dataclass
class ConsistencyReport:
    """Per-engine outputs on a shared ``(duty, vdd)`` grid."""

    engines: Tuple[str, ...]
    duties: Tuple[float, ...]
    vdd_values: Tuple[float, ...]
    #: engine id -> (n_duties, n_vdds) output voltages.
    outputs: Dict[str, np.ndarray] = field(default_factory=dict)

    def divergence(self, engine_a: str, engine_b: str) -> float:
        """Worst absolute output disagreement between two engines, V."""
        try:
            a, b = self.outputs[engine_a], self.outputs[engine_b]
        except KeyError as exc:
            raise AnalysisError(
                f"engine {exc.args[0]!r} not in this report; have "
                f"{sorted(self.outputs)}") from None
        return float(np.max(np.abs(a - b)))

    def pairwise_divergence(self) -> Dict[str, float]:
        """``"a_vs_b" -> worst |difference|`` for every engine pair."""
        result = {}
        for i, a in enumerate(self.engines):
            for b in self.engines[i + 1:]:
                result[f"{b}_vs_{a}"] = self.divergence(a, b)
        return result

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engines": list(self.engines),
            "duties": list(self.duties),
            "vdd_values": [float(v) for v in self.vdd_values],
            "outputs": {eid: [[float(v) for v in row] for row in grid]
                        for eid, grid in self.outputs.items()},
            "pairwise_divergence_V": self.pairwise_divergence(),
        }


def consistency_report(duties: Optional[Sequence[float]] = None,
                       vdd_values: Optional[Sequence[float]] = None, *,
                       engines: Optional[Sequence[str]] = None,
                       design: Optional[CellDesign] = None,
                       frequency: float = DEFAULT_FREQUENCY,
                       cout: float = DEFAULT_COUT,
                       rout: Optional[float] = DEFAULT_ROUT,
                       steps_per_period: int = 80,
                       fidelity: str = "fast") -> ConsistencyReport:
    """Run every engine over one shared operating grid.

    ``duties``/``vdd_values`` default to the fidelity's grid; ``engines``
    defaults to the whole registry.  ``steps_per_period`` only affects
    the transistor engine.
    """
    if duties is None or vdd_values is None:
        d_default, v_default = default_grid(fidelity)
        duties = d_default if duties is None else duties
        vdd_values = v_default if vdd_values is None else vdd_values
    duties = tuple(float(d) for d in duties)
    vdd_values = tuple(float(v) for v in vdd_values)
    if not duties or not vdd_values:
        raise AnalysisError("need at least one duty and one vdd")
    ids = tuple(engines) if engines is not None else tuple(engine_ids())
    design = design or CellDesign()

    stimuli = [CellStimulus(duty=duty, frequency=frequency, cout=cout,
                            rout=rout) for duty in duties]
    report = ConsistencyReport(engines=ids, duties=duties,
                               vdd_values=vdd_values)
    for eid in ids:
        eng = get_engine(eid)
        options = {"steps_per_period": steps_per_period} \
            if eng.capabilities().level == "transistor" else {}
        report.outputs[eid] = eng.sweep_grid(design, stimuli, vdd_values,
                                             **options)
    return report
