"""Property-based tests (hypothesis) for PWM encoding.

:mod:`repro.signals.pwm` — duty-cycle encode/decode/quantise round
trips, the input side of every perceptron evaluation.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import AnalysisError
from repro.signals.pwm import (
    decode_duty,
    encode_duty,
    encode_features,
    quantize_duty,
)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestPwmEncodingProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(value=finite,
           lo=st.floats(min_value=-100, max_value=99,
                        allow_nan=False, allow_infinity=False),
           span=st.floats(min_value=1e-3, max_value=100,
                          allow_nan=False, allow_infinity=False))
    def test_encode_decode_round_trip_is_clamp(self, value, lo, span):
        hi = lo + span
        duty = encode_duty(value, lo, hi)
        assert 0.0 <= duty <= 1.0
        recovered = decode_duty(duty, lo, hi)
        clamped = min(max(value, lo), hi)
        assert math.isclose(recovered, clamped,
                            rel_tol=1e-9, abs_tol=1e-9 * span)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(duty=st.floats(min_value=0, max_value=1,
                          allow_nan=False, allow_infinity=False),
           lo=st.floats(min_value=-100, max_value=99,
                        allow_nan=False, allow_infinity=False),
           span=st.floats(min_value=1e-3, max_value=100,
                          allow_nan=False, allow_infinity=False))
    def test_decode_encode_round_trip(self, duty, lo, span):
        hi = lo + span
        value = decode_duty(duty, lo, hi)
        assert lo <= value <= hi
        assert math.isclose(encode_duty(value, lo, hi), duty,
                            rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(duty=st.floats(min_value=0, max_value=1,
                          allow_nan=False, allow_infinity=False),
           steps=st.integers(min_value=1, max_value=1024))
    def test_quantize_lands_on_grid_and_is_idempotent(self, duty, steps):
        q = quantize_duty(duty, steps)
        assert 0.0 <= q <= 1.0
        assert abs(q - duty) <= 0.5 / steps + 1e-12
        on_grid = round(q * steps)
        assert math.isclose(q, on_grid / steps, abs_tol=1e-12)
        assert quantize_duty(q, steps) == q

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(values=st.lists(finite, min_size=1, max_size=8),
           steps=st.integers(min_value=1, max_value=64))
    def test_encode_features_matches_elementwise(self, values, steps):
        lo, hi = -10.0, 10.0
        encoded = encode_features(values, lo, hi, steps=steps)
        assert encoded == [
            quantize_duty(encode_duty(v, lo, hi), steps) for v in values]

    def test_bad_ranges_rejected(self):
        with pytest.raises(AnalysisError):
            encode_duty(0.5, 1.0, 1.0)
        with pytest.raises(AnalysisError):
            decode_duty(0.5, 2.0, 1.0)
        with pytest.raises(AnalysisError):
            quantize_duty(0.5, 0)
