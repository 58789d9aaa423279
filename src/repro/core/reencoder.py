"""Voltage → duty-cycle re-encoder (the inter-layer block of a PWM MLP).

Multi-layer PWM networks need the inverse of the transcoding inverter:
turn an analog node voltage back into a PWM duty cycle.  The standard
circuit is a *ramp comparator*: compare the voltage against a periodic
ramp spanning the rails; the comparator output is high while the ramp is
below the input, giving ``duty = v / vdd`` — ratiometric again, because
the ramp spans the same rails that produced the voltage.

This module provides a cycle-accurate behavioural model of that block
(with the comparator's offset/delay non-idealities) so network-level
studies can include the re-encoding error, plus the ideal closed form
used by :class:`~repro.core.network.PwmMlp`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.exceptions import AnalysisError
from ..circuit.waveform import Waveform


@dataclass(frozen=True)
class ReencoderDesign:
    """Ramp-comparator re-encoder parameters.

    ``comparator_offset`` (volts) and ``comparator_delay`` (fraction of
    the PWM period) model the decision stage's non-idealities;
    ``ramp_nonlinearity`` bends the ramp (a real RC-generated ramp is
    slightly exponential).
    """

    frequency: float = 500e6
    comparator_offset: float = 0.0
    comparator_delay: float = 0.0
    ramp_nonlinearity: float = 0.0

    def __post_init__(self):
        if self.frequency <= 0:
            raise AnalysisError("re-encoder frequency must be positive")
        if not 0.0 <= self.comparator_delay < 0.5:
            raise AnalysisError("comparator delay must lie in [0, 0.5)")
        if not 0.0 <= self.ramp_nonlinearity < 1.0:
            raise AnalysisError("ramp nonlinearity must lie in [0, 1)")


class RampReencoder:
    """Behavioural ramp-comparator re-encoder."""

    def __init__(self, design: ReencoderDesign = ReencoderDesign()):
        self.design = design

    def _ramp(self, phase: np.ndarray, vdd: float) -> np.ndarray:
        """Ramp voltage at period phase in [0, 1)."""
        lin = phase
        if self.design.ramp_nonlinearity > 0.0:
            # Exponential-ish ramp from an RC generator, normalised to
            # span [0, 1] over the period.
            a = self.design.ramp_nonlinearity * 3.0
            lin = (1.0 - np.exp(-a * phase)) / (1.0 - np.exp(-a))
        return lin * vdd

    def encode(self, voltage: float, vdd: float) -> float:
        """Exact duty cycle produced for a (quasi-static) input voltage."""
        if vdd <= 0:
            raise AnalysisError("vdd must be positive")
        v_eff = voltage + self.design.comparator_offset
        phase = np.linspace(0.0, 1.0, 2049)
        below = self._ramp(phase, vdd) < v_eff
        duty = float(np.mean(below))
        duty = min(max(duty + self.design.comparator_delay, 0.0), 1.0)
        return duty

    def output_waveform(self, voltage: float, vdd: float,
                        n_periods: int = 2,
                        points_per_period: int = 256) -> Waveform:
        """Sampled comparator output for visual/metric inspection."""
        t_end = n_periods / self.design.frequency
        n = n_periods * points_per_period + 1
        t = np.linspace(0.0, t_end, n)
        phase = (t * self.design.frequency) % 1.0
        v_eff = voltage + self.design.comparator_offset
        y = np.where(self._ramp(phase, vdd) < v_eff, vdd, 0.0)
        return Waveform(t, y, "reencoded_pwm")


def reencode_ratiometric(voltage: float, vdd: float) -> float:
    """Ideal re-encoding: ``duty = clip(v / vdd, 0, 1)``."""
    if vdd <= 0:
        raise AnalysisError("vdd must be positive")
    return float(np.clip(voltage / vdd, 0.0, 1.0))
