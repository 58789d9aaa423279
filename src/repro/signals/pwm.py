"""PWM signal specification and duty-cycle encoding.

The perceptron's inputs live in the *temporal* domain: a value in [0, 1]
is carried by the duty cycle of a pulse train, not by a voltage level.
:class:`PwmSpec` is the value-level description used throughout the core
library; it can be turned into a circuit stimulus
(:meth:`PwmSpec.to_source`), sampled as a waveform, or quantised the way
a digital modulo-N generator would produce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..circuit.elements.sources import PwmVoltage
from ..circuit.exceptions import AnalysisError
from ..circuit.units import Quantity, parse_quantity
from ..circuit.waveform import Waveform


@dataclass(frozen=True)
class PwmSpec:
    """A PWM signal: frequency, duty cycle, levels and phase.

    ``duty`` is the fraction of the period spent high, in [0, 1].
    """

    duty: float
    frequency: float = 500e6
    v_high: float = 2.5
    v_low: float = 0.0
    phase: float = 0.0
    rise_fraction: float = 0.02

    def __post_init__(self):
        if not 0.0 <= self.duty <= 1.0:
            raise AnalysisError(f"duty cycle must lie in [0, 1], got {self.duty}")
        if self.frequency <= 0:
            raise AnalysisError("PWM frequency must be positive")
        if not 0.0 <= self.phase < 1.0:
            raise AnalysisError("phase must lie in [0, 1)")
        if self.v_high < self.v_low:
            raise AnalysisError("v_high must not be below v_low")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency

    @property
    def average(self) -> float:
        """Time-average voltage of the ideal pulse train."""
        return self.v_low + self.duty * (self.v_high - self.v_low)

    def with_duty(self, duty: float) -> "PwmSpec":
        return replace(self, duty=duty)

    def with_frequency(self, frequency: Quantity) -> "PwmSpec":
        return replace(self, frequency=parse_quantity(frequency))

    def to_source(self, name: str, node: str, ref: str = "0") -> PwmVoltage:
        """Build the circuit stimulus for this spec."""
        return PwmVoltage(name, node, ref, v_low=self.v_low,
                          v_high=self.v_high, frequency=self.frequency,
                          duty=self.duty, rise_fraction=self.rise_fraction,
                          phase=self.phase)

    def sample(self, t_end: float, points_per_period: int = 64) -> Waveform:
        """Ideal (zero-rise-time) sampled waveform for analysis/tests."""
        n_periods = max(1, int(math.ceil(t_end / self.period)))
        n = n_periods * points_per_period + 1
        t = np.linspace(0.0, n_periods * self.period, n)
        tau = ((t / self.period) - self.phase) % 1.0
        y = np.where(tau < self.duty, self.v_high, self.v_low)
        return Waveform(t, y, "pwm")


def rail_referenced_pwm(name: str, node: str, supply, *, frequency: Quantity,
                        duty: float, ref: str = "0",
                        rise_fraction: float = 0.02):
    """PWM source whose amplitude tracks a time-varying supply rail.

    Models a driver powered from the (possibly drooping) rail itself:
    a unit-amplitude PWM multiplied by ``supply(t)``.  ``supply`` is any
    callable (e.g. a :class:`~repro.signals.supply.SupplyProfile`).
    """
    from ..circuit.elements.sources import ModulatedVoltage

    base = PwmVoltage(f"{name}_unit", f"{name}_a", f"{name}_b",
                      v_high=1.0, frequency=frequency, duty=duty,
                      rise_fraction=rise_fraction)
    breakpoints = getattr(supply, "breakpoints", None)
    return ModulatedVoltage(name, node, ref, base=base, envelope=supply,
                            envelope_breakpoints=breakpoints)


def encode_duty(value: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Map a feature value in ``[lo, hi]`` linearly onto a duty cycle.

    Values outside the range are clamped — the hardware cannot produce a
    duty cycle outside [0, 1].
    """
    if hi <= lo:
        raise AnalysisError(f"bad encoding range: [{lo}, {hi}]")
    return float(np.clip((value - lo) / (hi - lo), 0.0, 1.0))


def decode_duty(duty: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Inverse of :func:`encode_duty`."""
    if hi <= lo:
        raise AnalysisError(f"bad encoding range: [{lo}, {hi}]")
    return lo + float(np.clip(duty, 0.0, 1.0)) * (hi - lo)


def quantize_duty(duty: float, steps: int) -> float:
    """Quantise ``duty`` onto the ``steps``-level grid of a modulo-N
    counter generator (N = ``steps``): multiples of ``1/steps``."""
    if steps < 1:
        raise AnalysisError("steps must be >= 1")
    return round(float(np.clip(duty, 0.0, 1.0)) * steps) / steps


def encode_features(values: Sequence[float], lo: float = 0.0,
                    hi: float = 1.0, *,
                    steps: Optional[int] = None) -> "list[float]":
    """Vector version of :func:`encode_duty` with optional quantisation."""
    duties = [encode_duty(v, lo, hi) for v in values]
    if steps is not None:
        duties = [quantize_duty(d, steps) for d in duties]
    return duties
