"""Converter metrics: INL/DNL formulas, transfer curves, error stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog.metrics import (
    TransferCurve,
    differential_nonlinearity,
    error_stats,
    integral_nonlinearity,
    mac_error_fraction,
)


class TestDNL:
    def test_perfect_staircase_has_zero_dnl(self):
        volts = np.arange(16) * 1e-3
        assert np.allclose(differential_nonlinearity(volts, 1e-3), 0.0)

    def test_double_step_gives_plus_one(self):
        volts = np.array([0.0, 1e-3, 3e-3])  # second step is 2 LSB
        dnl = differential_nonlinearity(volts, 1e-3)
        assert dnl[0] == pytest.approx(0.0)
        assert dnl[1] == pytest.approx(1.0)

    def test_missing_code_gives_minus_one(self):
        volts = np.array([0.0, 1e-3, 1e-3])
        dnl = differential_nonlinearity(volts, 1e-3)
        assert dnl[1] == pytest.approx(-1.0)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            differential_nonlinearity(np.array([1.0]), 1e-3)


class TestINL:
    def test_perfect_line_has_zero_inl(self):
        volts = 0.5e-3 + np.arange(32) * 1e-3
        assert np.allclose(integral_nonlinearity(volts, 1e-3), 0.0)

    def test_endpoints_are_zero_by_construction(self):
        rng = np.random.default_rng(0)
        volts = np.sort(rng.uniform(0, 1, 64))
        inl = integral_nonlinearity(volts, 1e-3)
        assert inl[0] == pytest.approx(0.0)
        assert inl[-1] == pytest.approx(0.0)

    def test_bowed_curve_has_positive_middle_inl(self):
        codes = np.arange(64) / 63.0
        volts = np.sqrt(codes)  # bows upward
        inl = integral_nonlinearity(volts, 1.0 / 63.0)
        assert inl[32] > 0.0


class TestTransferCurve:
    def test_monotonicity_detection(self):
        up = TransferCurve(np.arange(4), np.array([0.0, 0.1, 0.2, 0.3]), 0.1)
        down = TransferCurve(np.arange(4), np.array([0.0, 0.2, 0.1, 0.3]), 0.1)
        assert up.is_monotonic()
        assert not down.is_monotonic()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TransferCurve(np.arange(3), np.zeros(4), 0.1)

    def test_nonpositive_lsb_rejected(self):
        with pytest.raises(ValueError):
            TransferCurve(np.arange(4), np.zeros(4), 0.0)


class TestMacError:
    def test_signed_fraction(self):
        err = mac_error_fraction(np.array([1.01]), np.array([1.0]), 2.0)
        assert err[0] == pytest.approx(0.005)

    def test_rejects_nonpositive_full_scale(self):
        with pytest.raises(ValueError):
            mac_error_fraction(np.ones(3), np.ones(3), 0.0)


class TestErrorStats:
    def test_known_sample(self):
        stats = error_stats([1.0, -1.0, 1.0, -1.0])
        assert stats.mean == pytest.approx(0.0)
        assert stats.rms == pytest.approx(1.0)
        assert stats.max_abs == pytest.approx(1.0)
        assert stats.count == 4
        assert stats.three_sigma == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_stats([])

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold_for_any_sample(self, values):
        stats = error_stats(values)
        assert stats.max_abs >= abs(stats.mean) - 1e-9
        assert stats.rms >= stats.std - 1e-9  # rms^2 = std^2 + mean^2
        assert stats.p99_abs <= stats.max_abs + 1e-9
