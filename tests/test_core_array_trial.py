"""Tests of the Monte-Carlo trial against the array it stands for.

``mac_voltage_trial`` draws only what one compute bar reads: the bar's unit
capacitors, one total capacitance per eDAC group's units outside the bar,
and the noise of the shares read.  Its kernel must compute, from capacitors
read off an ``InChargeArray``'s own map, exactly what the array reads; its
samples must be distributed as fresh arrays' samples; and the group sampler
must have the moments of the unit capacitors it sums.  Bad weights and
inputs must fail with the array's own messages.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.analog.montecarlo import run_monte_carlo
from repro.analog.variation import Corner, VariationModel
from repro.core.array import (
    InChargeArray,
    _bar_mac_voltage,
    _bar_operands,
    _layout,
    mac_voltage_trial,
)
from repro.core.config import ArrayConfig


def _array_trial(weights, x, variation, cb):
    """The reference: one fresh array instance per trial."""

    def trial(rng):
        array = InChargeArray(variation=variation, rng=rng)
        array.program_weights(weights)
        return float(array.vmm_voltages(x)[cb])

    return trial


def _outside_sums(caps, ops, cfg):
    """Per row, the summed capacitance of each of ``ops.outside_groups``'s
    units outside the bar, read off a (rows, cols) capacitor map."""
    outside = np.ones(cfg.cols, dtype=bool)
    outside[ops.cols] = False
    col_group = _layout(cfg).col_group
    return np.stack(
        [caps[:, outside & (col_group == g)].sum(axis=1) for g in ops.outside_groups],
        axis=1,
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    cb=st.integers(0, 31),
    corner=st.sampled_from(list(Corner)),
    temperature=st.sampled_from([-40.0, 25.0, 85.0]),
    sigma=st.sampled_from([0.01, 0.05]),
)
@settings(max_examples=40, deadline=None)
def test_kernel_equals_array_on_the_arrays_capacitors(seed, cb, corner, temperature, sigma):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 256, (128, 32))
    x = rng.integers(0, 256, 128)
    variation = dataclasses.replace(
        VariationModel.typical(corner=corner, temperature_c=temperature),
        cap_mismatch_sigma=sigma,
        enable_ktc_noise=False,
        charge_injection_sigma_volt=0.0,
    )
    array = InChargeArray(variation=variation, rng=rng)
    array.program_weights(weights)
    cfg = array.config
    caps = array.capacitances
    ops = _bar_operands(weights, x, cb, cfg)
    got = _bar_mac_voltage(
        caps[:, ops.cols], _outside_sums(caps, ops, cfg), ops, variation, rng
    )
    np.testing.assert_allclose(got, array.vmm_voltages(x)[cb], rtol=1e-12, atol=0.0)


def test_bar_zero_reads_eight_units_and_five_groups_per_row():
    ops = _bar_operands(np.zeros((128, 32), dtype=int), np.zeros(128, dtype=int), 0,
                        ArrayConfig())
    assert ops.outside_groups.tolist() == [4, 5, 6, 7, 8]
    assert ops.outside_counts.tolist() == [8, 16, 32, 64, 128]
    assert ops.row_volts.shape == (128, 8 + 5)


# Seed 0's operands on bar 0 and on bar 13, which sits inside eDAC group 6.
_N = 600
#: Bound on |log(std ratio)|: about 3 standard errors of the log ratio of
#: two sample stds of _N normal draws each, sqrt(1 / (_N - 1)).
_LOG_STD_RATIO_BOUND = 3.0 / np.sqrt(_N - 1)


@pytest.mark.parametrize("cb", [0, 13])
def test_trial_samples_are_distributed_as_fresh_arrays(cb):
    variation = VariationModel.typical()
    rng = np.random.default_rng(0)
    weights = rng.integers(0, 256, (128, 32))
    x = rng.integers(0, 256, 128)
    fast = run_monte_carlo(mac_voltage_trial(weights, x, variation, cb), _N, seed=1)
    ref = run_monte_carlo(_array_trial(weights, x, variation, cb), _N, seed=2)
    stderr = np.hypot(fast.std, ref.std) / np.sqrt(_N)
    assert abs(fast.mean - ref.mean) < 3.0 * stderr
    assert abs(np.log(fast.std / ref.std)) < _LOG_STD_RATIO_BOUND


class TestGroupSampler:
    counts = np.array([1, 5, 8, 128])

    def test_moments_match_summed_unit_capacitors(self):
        variation = VariationModel.typical(corner=Corner.FF)
        sums = variation.sample_group_capacitances(
            self.counts, 40_000, np.random.default_rng(0)
        )
        nominal = constants.CU_FARAD * Corner.FF.capacitance_scale
        assert sums.shape == (40_000, self.counts.size)
        relative = sums / nominal
        sigma = variation.cap_mismatch_sigma * np.sqrt(self.counts)
        # mean: 4 standard errors; std: 3 % is ~8 standard errors at 40,000.
        np.testing.assert_array_less(
            np.abs(relative.mean(axis=0) - self.counts), 4.0 * sigma / np.sqrt(40_000)
        )
        np.testing.assert_allclose(relative.std(axis=0), sigma, rtol=0.03)

    def test_matches_sums_of_unit_draws(self):
        variation = VariationModel(cap_mismatch_sigma=0.05)
        units = variation.sample_unit_capacitors((20_000, 128), np.random.default_rng(1))
        sums = variation.sample_group_capacitances([128], 20_000, np.random.default_rng(2))
        # In units of the nominal capacitor: approx's 1e-12 absolute
        # tolerance would swallow any difference between farad values.
        unit_sums = units.sum(axis=1) / constants.CU_FARAD
        group_sums = sums[:, 0] / constants.CU_FARAD
        stderr = np.hypot(unit_sums.std(), group_sums.std()) / np.sqrt(20_000)
        assert abs(group_sums.mean() - unit_sums.mean()) < 4.0 * stderr
        assert group_sums.std() == pytest.approx(unit_sums.std(), rel=0.05)

    def test_ideal_sums_are_nominal_and_draw_nothing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        sums = VariationModel.ideal().sample_group_capacitances(self.counts, 4, rng)
        assert np.array_equal(sums, np.tile(self.counts * constants.CU_FARAD, (4, 1)))
        assert rng.bit_generator.state == state

    def test_refuses_sigma_where_the_unit_clip_could_bind(self):
        with pytest.raises(ValueError, match="clip"):
            VariationModel(cap_mismatch_sigma=0.1).sample_group_capacitances(
                self.counts, 4, np.random.default_rng(0)
            )
        VariationModel(cap_mismatch_sigma=0.09).sample_group_capacitances(
            self.counts, 4, np.random.default_rng(0)
        )


def _error(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


@given(
    bad=st.sampled_from(["weight_high", "weight_low", "weight_shape",
                         "input_high", "input_low", "input_shape"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_bad_operands_raise_the_array_messages(bad, seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 256, (128, 32))
    x = rng.integers(0, 256, 128)
    i, j = rng.integers(0, 128), rng.integers(0, 32)
    if bad == "weight_high":
        weights[i, j] = 256 + rng.integers(0, 1000)
    elif bad == "weight_low":
        weights[i, j] = -1 - rng.integers(0, 1000)
    elif bad == "weight_shape":
        weights = weights[:, :31]
    elif bad == "input_high":
        x[i] = 256 + rng.integers(0, 1000)
    elif bad == "input_low":
        x[i] = -1 - rng.integers(0, 1000)
    else:
        x = x[:127]
    variation = VariationModel.typical()
    fast = _error(lambda: mac_voltage_trial(weights, x, variation))
    ref = _error(lambda: _array_trial(weights, x, variation, 0)(np.random.default_rng(0)))
    assert fast == ref


@pytest.mark.parametrize("cb", [-1, 32])
def test_compute_bar_out_of_range(cb):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="compute bar"):
        mac_voltage_trial(
            rng.integers(0, 256, (128, 32)),
            rng.integers(0, 256, 128),
            VariationModel.typical(),
            cb=cb,
        )
