"""Parameter-sensitivity analysis of the weighted adder.

Finite-difference sensitivities of the adder output with respect to
every electrical design parameter (device thresholds, transconductances,
the passives).  Ranks which parameters actually matter — the ratiometric
structure makes the output insensitive to *global* parameter shifts but
sensitive to *asymmetries*, and this analysis shows exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

from ..circuit.exceptions import AnalysisError
from ..core.cells import CellDesign
from ..core.weighted_adder import WeightedAdder


@dataclass(frozen=True)
class Sensitivity:
    """Normalised sensitivity ``(dV/V) / (dp/p)`` of one parameter."""

    parameter: str
    nominal_output: float
    sensitivity: float


def _perturbed_cell(cell: CellDesign, parameter: str,
                    rel_step: float) -> CellDesign:
    if parameter == "rout":
        return replace(cell, rout=cell.rout * (1 + rel_step))
    if parameter == "nmos_width":
        return replace(cell, nmos_width=cell.nmos_width * (1 + rel_step))
    if parameter == "pmos_width":
        return replace(cell, pmos_width=cell.pmos_width * (1 + rel_step))
    if parameter == "nmos_vt":
        return replace(cell, nmos=cell.nmos.scaled(
            vt0=cell.nmos.vt0 * (1 + rel_step)))
    if parameter == "pmos_vt":
        return replace(cell, pmos=cell.pmos.scaled(
            vt0=cell.pmos.vt0 * (1 + rel_step)))
    if parameter == "nmos_kp":
        return replace(cell, nmos=cell.nmos.scaled(
            kp=cell.nmos.kp * (1 + rel_step)))
    if parameter == "pmos_kp":
        return replace(cell, pmos=cell.pmos.scaled(
            kp=cell.pmos.kp * (1 + rel_step)))
    raise AnalysisError(f"unknown sensitivity parameter {parameter!r}")


#: Parameters ranked by default.
SENSITIVITY_PARAMETERS = ("rout", "nmos_width", "pmos_width", "nmos_vt",
                          "pmos_vt", "nmos_kp", "pmos_kp")


def adder_sensitivities(adder: WeightedAdder, duties: Sequence[float],
                        weights: Sequence[int], *,
                        parameters: Sequence[str] = SENSITIVITY_PARAMETERS,
                        rel_step: float = 0.05,
                        vdd: "float | None" = None) -> List[Sensitivity]:
    """Normalised output sensitivities via central differences on the
    RC switch-level engine (applied to *every* cell simultaneously —
    i.e. a global parameter shift, the corner-style variation)."""
    if rel_step <= 0:
        raise AnalysisError("rel_step must be positive")
    cfg = adder.config
    nominal = adder.evaluate(duties, weights, engine="rc", vdd=vdd).value
    if nominal == 0.0:
        raise AnalysisError("nominal output is zero; sensitivities undefined")

    results: List[Sensitivity] = []
    for parameter in parameters:
        outputs = []
        for sign in (+1.0, -1.0):
            cell = _perturbed_cell(cfg.cell, parameter, sign * rel_step)
            overrides: Dict[int, CellDesign] = {
                i * cfg.n_bits + b: cell.scaled(float(1 << b))
                for i in range(cfg.n_inputs)
                for b in range(cfg.n_bits)
            }
            outputs.append(adder.evaluate(
                duties, weights, engine="rc", vdd=vdd,
                cell_overrides=overrides).value)
        dv = (outputs[0] - outputs[1]) / 2.0
        results.append(Sensitivity(
            parameter=parameter, nominal_output=nominal,
            sensitivity=(dv / nominal) / rel_step))
    return sorted(results, key=lambda s: -abs(s.sensitivity))
