"""Power-elasticity metrics.

The paper demonstrates elasticity visually (Figs. 5 and 7: flat curves).
These metrics turn "flat" into numbers: relative spread of the
ratiometric output across a supply range, the usable supply window, and
an elasticity score comparable across designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..circuit.exceptions import AnalysisError


@dataclass(frozen=True)
class ElasticityReport:
    """Summary of a ratiometric supply sweep for one operating point."""

    vdd: "tuple[float, ...]"
    ratio: "tuple[float, ...]"          # Vout / Vdd at each supply
    usable_from: float                   # smallest Vdd inside tolerance
    spread_in_window: float              # max-min of ratio in the window
    tolerance: float

    @property
    def is_elastic(self) -> bool:
        return np.isfinite(self.usable_from)


def ratiometric_report(vdd: Sequence[float], vout: Sequence[float], *,
                       tolerance: float = 0.05,
                       reference_vdd: "float | None" = None) -> ElasticityReport:
    """Analyse ``Vout/Vdd`` flatness over a supply sweep.

    ``usable_from`` is the smallest supply from which the ratio stays
    within ``tolerance`` (absolute, in ratio units) of the value at the
    reference supply (default: the largest swept Vdd) *through the rest
    of the sweep*.
    """
    v = np.asarray(vdd, dtype=float)
    out = np.asarray(vout, dtype=float)
    if v.size != out.size or v.size < 2:
        raise AnalysisError("need matching vdd/vout arrays of length >= 2")
    if np.any(np.diff(v) <= 0):
        raise AnalysisError("vdd sweep must be strictly increasing")
    if np.any(v <= 0):
        raise AnalysisError("vdd values must be positive")
    ratio = out / v
    ref_idx = -1 if reference_vdd is None else int(np.argmin(np.abs(v - reference_vdd)))
    ref = ratio[ref_idx]
    within = np.abs(ratio - ref) <= tolerance
    usable_from = float("inf")
    # Earliest index from which everything stays in tolerance.  The
    # window must span at least two sweep points: the reference point is
    # trivially within tolerance of itself and proves nothing.
    for i in range(v.size - 1):
        if within[i:].all():
            usable_from = float(v[i])
            break
    if np.isfinite(usable_from):
        window = ratio[v >= usable_from]
        spread = float(np.ptp(window))
    else:
        spread = float(np.ptp(ratio))
    return ElasticityReport(vdd=tuple(v), ratio=tuple(ratio),
                            usable_from=usable_from,
                            spread_in_window=spread, tolerance=tolerance)


def frequency_flatness(frequencies: Sequence[float],
                       vout: Sequence[float]) -> float:
    """Relative spread of the output across a frequency sweep
    (paper Fig. 5's claim: ~0 over 1 MHz – 1.5 GHz)."""
    out = np.asarray(vout, dtype=float)
    if out.size < 2:
        raise AnalysisError("need at least two frequency points")
    mean = float(np.mean(out))
    if mean == 0.0:
        raise AnalysisError("cannot normalise a zero-mean series")
    return float(np.ptp(out) / abs(mean))


def elasticity_score(vdd: Sequence[float], vout: Sequence[float], *,
                     v_min_target: float = 1.0,
                     tolerance: float = 0.05) -> float:
    """Scalar in [0, 1]: fraction of the swept supply range (above the
    target minimum) over which the design is ratiometrically stable."""
    report = ratiometric_report(vdd, vout, tolerance=tolerance)
    v = np.asarray(vdd, dtype=float)
    span = v[-1] - max(v_min_target, v[0])
    if span <= 0:
        raise AnalysisError("sweep does not extend past the target minimum")
    if not report.is_elastic:
        return 0.0
    usable = v[-1] - max(report.usable_from, v_min_target, v[0])
    return float(np.clip(usable / span, 0.0, 1.0))
