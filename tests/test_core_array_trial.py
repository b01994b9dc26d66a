"""Differential tests of the hoisted Monte-Carlo trial against the array.

``mac_voltage_trial`` must return, bit for bit, what a freshly built
``InChargeArray`` reads on one compute bar, and leave each trial's RNG in
the same state, so ``run_monte_carlo`` samples are array-equal.  Bad
weights and inputs must fail with the array's own messages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog.montecarlo import run_monte_carlo
from repro.analog.variation import Corner, VariationModel
from repro.core.array import InChargeArray, mac_voltage_trial


def _array_trial(weights, x, variation, cb):
    """The reference: one fresh array instance per trial."""

    def trial(rng):
        array = InChargeArray(variation=variation, rng=rng)
        array.program_weights(weights)
        return float(array.vmm_voltages(x)[cb])

    return trial


@st.composite
def _cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(0, 256, (128, 32))
    x = rng.integers(0, 256, 128)
    cb = draw(st.integers(0, 31))
    if draw(st.booleans()):
        variation = VariationModel.typical(
            corner=draw(st.sampled_from(list(Corner))),
            temperature_c=draw(st.sampled_from([-40.0, 25.0, 85.0])),
        )
    else:
        variation = VariationModel.ideal()
    return weights, x, cb, variation, draw(st.integers(0, 2**16))


@given(_cases())
@settings(max_examples=25, deadline=None)
def test_trial_samples_equal_fresh_arrays(case):
    weights, x, cb, variation, seed = case
    fast = run_monte_carlo(mac_voltage_trial(weights, x, variation, cb), 3, seed)
    ref = run_monte_carlo(_array_trial(weights, x, variation, cb), 3, seed)
    assert np.array_equal(fast.samples, ref.samples)


def test_trial_leaves_rng_where_the_array_does():
    rng = np.random.default_rng(0)
    weights = rng.integers(0, 256, (128, 32))
    x = rng.integers(0, 256, 128)
    variation = VariationModel.typical()
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    mac_voltage_trial(weights, x, variation, cb=5)(a)
    _array_trial(weights, x, variation, 5)(b)
    assert a.bit_generator.state == b.bit_generator.state


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
