"""The complete mixed-signal perceptron of paper Fig. 1, in one netlist.

PWM sources → 54-transistor weighted adder → averaging node →
ratiometric reference divider → 8-transistor differential comparator →
digital decision.  Everything the paper draws, simulated together at
transistor level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..circuit.exceptions import AnalysisError
from ..circuit.netlist import Circuit
from .comparator_circuit import (
    ComparatorDesign,
    comparator_subckt,
    reference_divider_subckt,
)
from .encoding import max_weight
from .weighted_adder import AdderConfig, WeightedAdder, adder_pss


@dataclass(frozen=True)
class FullPerceptronResult:
    """One transistor-level classification."""

    decision: int
    v_sum: float        # average adder output, volts
    v_ref: float        # average reference, volts
    v_out: float        # average comparator output, volts
    supply_power: float
    transistor_count: int

    @property
    def margin(self) -> float:
        return self.v_sum - self.v_ref


def build_full_perceptron_circuit(duties: Sequence[float],
                                  weights: Sequence[int],
                                  theta: float, *,
                                  config: Optional[AdderConfig] = None,
                                  vdd: Optional[float] = None,
                                  frequency: Optional[float] = None,
                                  comparator: Optional[ComparatorDesign] = None) -> Circuit:
    """Assemble the full schematic.

    ``theta`` is the decision threshold on the abstract weighted sum
    ``sum(DC_i * W_i)``; the reference divider realises the equivalent
    ratiometric voltage ``theta / (k * (2^n - 1)) * Vdd``.
    """
    config = config or AdderConfig()
    adder = WeightedAdder(config)
    circuit = adder.build_circuit(duties, weights, vdd=vdd,
                                  frequency=frequency)
    denominator = config.n_inputs * max_weight(config.n_bits)
    ratio = theta / denominator
    if not 0.0 < ratio < 1.0:
        raise AnalysisError(
            f"theta {theta} maps to divider ratio {ratio:.3f}, outside (0, 1)")
    # 100k total keeps the reference node fast against the comparator's
    # gate capacitance while drawing only ~25 uA.
    circuit.instantiate(
        reference_divider_subckt(ratio, total_resistance=100e3), "XREF",
        {"ref": "vref", "vdd": "vdd"})
    circuit.instantiate(comparator_subckt(comparator or ComparatorDesign()),
                        "XCMP",
                        {"inp": "out", "inn": "vref", "out": "decision",
                         "vdd": "vdd"})
    return circuit


def evaluate_full_perceptron(duties: Sequence[float],
                             weights: Sequence[int], theta: float, *,
                             config: Optional[AdderConfig] = None,
                             vdd: Optional[float] = None,
                             frequency: Optional[float] = None,
                             steps_per_period: int = 17,
                             solver: str = "auto") -> FullPerceptronResult:
    """Transistor-level PSS of the whole perceptron; the decision is the
    comparator output's period average thresholded at mid-rail."""
    return evaluate_full_perceptrons(
        [(duties, weights, vdd)], theta, config=config, frequency=frequency,
        steps_per_period=steps_per_period, solver=solver)[0]


def evaluate_full_perceptrons(points: "Sequence[tuple]", theta: float, *,
                              config: Optional[AdderConfig] = None,
                              frequency: Optional[float] = None,
                              steps_per_period: int = 17,
                              solver: str = "auto"
                              ) -> "List[FullPerceptronResult]":
    """:func:`evaluate_full_perceptron` over ``(duties, weights, vdd)``
    points (``vdd=None`` is the config rail) as one batched PSS solve;
    points sharing weights share a lock-step stack, and every result
    equals its single-point evaluation bit for bit."""
    config = config or AdderConfig()
    freq = config.frequency if frequency is None else frequency
    supplies = [config.vdd if vdd is None else vdd for _, _, vdd in points]
    circuits = [build_full_perceptron_circuit(
        duties, weights, theta, config=config, vdd=supply, frequency=freq)
        for (duties, weights, _), supply in zip(points, supplies)]
    # The comparator's internal nodes are slow too (microamp currents
    # into femtofarad caps give multi-period time constants near
    # balance), so shooting must treat them as state as well.  Seven
    # observed nodes means seven sensitivity columns ride along with
    # each point's one period run per shooting iteration.
    results = adder_pss(circuits, 1.0 / freq,
                        observe=["out", "decision", "vref", "XCMP.d2",
                                 "XCMP.d1", "XCMP.tail", "XCMP.outb"],
                        steps_per_period=steps_per_period, solver=solver)
    out = []
    for pss, circuit, supply in zip(results, circuits, supplies):
        v_out = pss.average("decision")
        out.append(FullPerceptronResult(
            decision=int(v_out > supply / 2.0),
            v_sum=pss.average("out"),
            v_ref=pss.average("vref"),
            v_out=v_out,
            supply_power=pss.supply_power("VDD"),
            transistor_count=circuit.stats()["transistors"]))
    return out
