"""The AC-characterisation experiment (fast fidelity)."""

import pytest

from repro.experiments import RunConfig, run_config


def test_pole_tracks_hand_value():
    res = run_config(RunConfig.build("ext_ac", "fast"))
    assert res.metrics["pole_ratio[100k/1.0p]"] == pytest.approx(1.0,
                                                                 abs=0.15)


def test_pole_scales_with_cout():
    res = run_config(RunConfig.build("ext_ac", "fast"))
    ratio = res.metrics["pole_MHz[100k/1.0p]"] / \
        res.metrics["pole_MHz[100k/10.0p]"]
    assert ratio == pytest.approx(10.0, rel=0.1)


def test_small_rout_pole_shifted_by_transistor_resistance():
    res = run_config(RunConfig.build("ext_ac", "fast"))
    # At 5k the device output resistance is no longer negligible, so
    # the measured pole sits well below the ideal-R hand value.
    assert res.metrics["pole_ratio[5k/1.0p]"] < 0.7
