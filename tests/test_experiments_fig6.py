"""Fig. 6 circuit-level experiments (reduced sample counts for test speed)."""

import numpy as np
import pytest

from repro import constants
from repro.experiments.fig6 import (
    format_fig6,
    run_fig6a,
    run_fig6bc,
    run_fig6d,
    run_fig6e,
)


class TestFig6a:
    def test_linearity_within_paper_band(self):
        res = run_fig6a(seed=0)
        assert res.max_abs_inl_lsb < 2.0
        assert res.max_abs_dnl_lsb < 2.0

    def test_curve_spans_full_range(self):
        res = run_fig6a(seed=0)
        assert res.curve.voltages[0] < 0.01
        assert res.curve.voltages[-1] > 0.85


class TestFig6bc:
    def test_mac_error_under_paper_bound(self):
        res = run_fig6bc(seed=0, step=8)
        assert res.max_error_percent < 0.68

    def test_curves_are_monotone_ramps(self):
        res = run_fig6bc(seed=0, step=8)
        # Allow sub-LSB local inversions from noise.
        lsb = constants.LSB_VOLT
        assert np.all(np.diff(res.weight_sweep_voltages) > -lsb)
        assert np.all(np.diff(res.input_sweep_voltages) > -lsb)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            run_fig6bc(step=0)


class TestFig6d:
    def test_three_sigma_near_paper(self):
        res = run_fig6d(n_samples=300, seed=42)
        assert res.three_sigma * 1e3 == pytest.approx(2.25, rel=0.25)
        assert res.three_sigma < constants.LSB_VOLT  # < 1 LSB, the claim

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_full_size_three_sigma_in_paper_band(self, seed):
        """The paper's 2,000 samples: 3 sigma within 0.35 mV of 2.25 mV."""
        res = run_fig6d(n_samples=2000, seed=seed)
        assert abs(res.three_sigma - 2.25e-3) <= 0.35e-3
        assert res.three_sigma < constants.LSB_VOLT

    def test_reproducible(self):
        a = run_fig6d(n_samples=50, seed=1)
        b = run_fig6d(n_samples=50, seed=1)
        assert np.array_equal(a.samples, b.samples)


class TestFig6e:
    def test_error_stack_within_paper_bounds(self):
        res = run_fig6e(seed=0, n_vectors=4)
        assert res.mac_error_percent < 0.68
        assert res.tda_error_percent < 0.125
        assert res.end_to_end_error_percent < 0.98

    def test_bars_include_ours_and_priors(self):
        res = run_fig6e(seed=0, n_vectors=2)
        bars = res.bars()
        assert len(bars) == 6
        assert bars[-1][0].startswith("Our")

    def test_ours_is_competitive_with_best_prior(self):
        res = run_fig6e(seed=0, n_vectors=2)
        prior_best = min(e.error_percent for e in res.prior_errors)
        # The paper's own bar chart has YOCO at 0.98 % vs best prior 0.89 %;
        # ours must at least be in that sub-2 % class.
        assert res.end_to_end_error_percent < 2 * prior_best


class TestFormatting:
    def test_format_combines_available_parts(self):
        a = run_fig6a(seed=0)
        text = format_fig6(a=a)
        assert "INL" in text
        assert "Monte-Carlo" not in text
