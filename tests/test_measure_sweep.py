"""Measurement helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit import (
    AnalysisError,
    flatness,
    linear_fit,
    max_linearity_error,
    r_squared,
    relative_error,
)


class TestLinearity:
    def test_perfect_line(self):
        x = np.linspace(0, 1, 11)
        y = 2 * x + 1
        slope, intercept = linear_fit(x, y)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert r_squared(x, y) == pytest.approx(1.0)
        assert max_linearity_error(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_curved_data_scores_lower(self):
        x = np.linspace(0, 1, 21)
        assert r_squared(x, x**3) < r_squared(x, x)

    def test_needs_two_points(self):
        with pytest.raises(AnalysisError):
            linear_fit([1.0], [2.0])

    @given(st.floats(min_value=1e-3, max_value=10),
           st.floats(min_value=-10, max_value=10))
    def test_r_squared_of_any_line_is_one(self, slope, intercept):
        # Slopes below ~1e-3 degenerate into constant series where r^2
        # is dominated by floating-point noise, hence the lower bound.
        x = np.linspace(0, 1, 7)
        y = slope * x + intercept
        assert r_squared(x, y) == pytest.approx(1.0, abs=1e-9)


class TestFlatness:
    def test_constant_series_is_flat(self):
        assert flatness([3.0, 3.0, 3.0]) == 0.0

    def test_spread_measured_relative(self):
        assert flatness([1.0, 1.1]) == pytest.approx(0.1 / 1.05)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            flatness([])


class TestRelativeError:
    def test_basic(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)

    def test_zero_reference(self):
        assert relative_error(0.2, 0.0) == pytest.approx(0.2)
