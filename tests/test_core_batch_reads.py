"""Batched circuit reads against the same reads made one at a time.

``InChargeArray.vmm_voltages`` and ``convert_inputs`` take a (k, rows)
batch, ``DetailedIMA.vmm_batch`` a (m, input_dim) batch, and
``run_monte_carlo`` hands a ``BatchTrial`` its generators a chunk at a time.
Each batch must draw, member by member, the numbers that single reads or
trials draw, so it returns their results bit for bit and leaves every
generator in the same state.  Batch sizes cross the chunk boundaries.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog.montecarlo import _TRIAL_CHUNK, run_monte_carlo
from repro.analog.variation import Corner, VariationModel
from repro.core.array import _READ_CHUNK, InChargeArray, mac_voltage_trial
from repro.core.config import IMAConfig
from repro.core.engine import YocoMatmulEngine
from repro.core.ima import DetailedIMA

_VARIATIONS = {
    "ideal": VariationModel.ideal(),
    "ktc_only": dataclasses.replace(VariationModel.ideal(), enable_ktc_noise=True),
    "injection_only": dataclasses.replace(
        VariationModel.ideal(), charge_injection_sigma_volt=0.6e-3
    ),
    **{f"typical_{c.value}": VariationModel.typical(corner=c) for c in Corner},
}

_BATCH_SIZES = st.integers(1, 2 * _READ_CHUNK + 1)


def _twins(variation, seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 256, (128, 32))
    arrays = []
    for _ in range(2):
        array = InChargeArray(variation=variation, seed=seed)
        array.program_weights(weights)
        arrays.append(array)
    return arrays, rng


@given(name=st.sampled_from(sorted(_VARIATIONS)), k=_BATCH_SIZES,
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_vmm_batch_equals_single_reads(name, k, seed):
    (batched, single), rng = _twins(_VARIATIONS[name], seed)
    xs = rng.integers(0, 256, (k, 128))
    got = batched.vmm_diagnostics(xs)
    want = [single.vmm_diagnostics(x) for x in xs]
    for field in ("input_voltages", "column_voltages", "mac_voltages"):
        expected = np.stack([getattr(d, field) for d in want])
        assert np.array_equal(getattr(got, field), expected), field
    assert batched._rng.bit_generator.state == single._rng.bit_generator.state
    assert batched.vmm_count == single.vmm_count == k
    assert batched.activation_count == single.activation_count


@given(name=st.sampled_from(sorted(_VARIATIONS)), k=_BATCH_SIZES,
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_convert_inputs_batch_equals_single_reads(name, k, seed):
    (batched, single), rng = _twins(_VARIATIONS[name], seed)
    xs = rng.integers(0, 256, (k, 128))
    expected = np.stack([single.convert_inputs(x) for x in xs])
    assert np.array_equal(batched.convert_inputs(xs), expected)
    assert batched._rng.bit_generator.state == single._rng.bit_generator.state


def test_single_read_keeps_its_shape():
    (array, _), rng = _twins(VariationModel.typical(), 0)
    assert array.vmm_voltages(rng.integers(0, 256, 128)).shape == (32,)
    assert array.vmm_voltages(rng.integers(0, 256, (1, 128))).shape == (1, 32)
    assert array.vmm_voltages(np.zeros((0, 128), dtype=int)).shape == (0, 32)


@pytest.mark.parametrize("shape", [(3, 127), (2, 2, 128), ()])
def test_batch_shape_checked(shape):
    (array, _), _ = _twins(VariationModel.ideal(), 0)
    with pytest.raises(ValueError, match="expected input of shape"):
        array.vmm_voltages(np.zeros(shape, dtype=int))


# A 2x2 grid of arrays keeps each hypothesis example cheap.
_SMALL_IMA = dataclasses.replace(IMAConfig(), grid_rows=2, grid_cols=2)


@given(m=_BATCH_SIZES, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_detailed_ima_batch_equals_per_vector_vmm(m, seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 256, (_SMALL_IMA.input_dim, _SMALL_IMA.output_dim))
    xs = rng.integers(0, 256, (m, _SMALL_IMA.input_dim))
    batched, single = (DetailedIMA(config=_SMALL_IMA, seed=seed) for _ in range(2))
    batched.program_weights(weights)
    single.program_weights(weights)
    codes = batched.vmm_batch(xs)
    assert np.array_equal(codes, np.stack([single.vmm(x) for x in xs]))
    assert np.array_equal(
        batched.vmm_dequantized_batch(xs), np.stack([single.vmm_dequantized(x) for x in xs])
    )
    assert batched.vmm_count == single.vmm_count == 2 * m


def test_full_detailed_ima_code_error_batch_equals_per_vector():
    rng = np.random.default_rng(7)
    weights = rng.integers(0, 256, (1024, 256))
    xs = rng.integers(0, 256, (3, 1024))
    batched, single = DetailedIMA(seed=7), DetailedIMA(seed=7)
    batched.program_weights(weights)
    single.program_weights(weights)
    assert np.array_equal(batched.code_error(xs), np.stack([single.code_error(x) for x in xs]))
    assert batched.tda.conversion_count == single.tda.conversion_count
    assert batched.tdc.conversion_count == single.tdc.conversion_count


def test_detailed_ima_batch_shape_checked():
    ima = DetailedIMA(config=_SMALL_IMA, seed=0)
    ima.program_weights(np.zeros((256, 64), dtype=int))
    with pytest.raises(ValueError, match="inputs"):
        ima.vmm_batch(np.zeros(256, dtype=int))


@pytest.mark.parametrize("mode", ["fast", "detailed"])
def test_engine_batch_equals_row_by_row(mode):
    rng = np.random.default_rng(11)
    x = rng.integers(0, 256, (4, 200))
    w = rng.integers(0, 256, (200, 40))
    whole = YocoMatmulEngine(mode=mode, seed=3).matmul_unsigned(x, w)
    rows = YocoMatmulEngine(mode=mode, seed=3)
    expected = np.concatenate([rows.matmul_unsigned(x[i : i + 1], w) for i in range(4)])
    assert np.array_equal(whole, expected)


def _trial_operands(seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (128, 32)), rng.integers(0, 256, 128)


@given(
    n=st.sampled_from([1, _TRIAL_CHUNK - 1, _TRIAL_CHUNK, _TRIAL_CHUNK + 1]),
    name=st.sampled_from(sorted(_VARIATIONS)),
    cb=st.integers(0, 31),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_monte_carlo_chunks_equal_single_trials(n, name, cb, seed):
    weights, x = _trial_operands(seed)
    trial = mac_voltage_trial(weights, x, _VARIATIONS[name], cb)
    children = np.random.SeedSequence(seed).spawn(n)
    expected = [trial(np.random.default_rng(child)) for child in children]
    assert np.array_equal(run_monte_carlo(trial, n, seed=seed).samples, expected)


def test_trial_batch_leaves_each_generator_where_a_single_trial_does():
    weights, x = _trial_operands(0)
    trial = mac_voltage_trial(weights, x, VariationModel.typical())
    batch_rngs = [np.random.default_rng(i) for i in range(3)]
    single_rngs = [np.random.default_rng(i) for i in range(3)]
    got = trial.batch(batch_rngs)
    assert np.array_equal(got, [trial(rng) for rng in single_rngs])
    for a, b in zip(batch_rngs, single_rngs):
        assert a.bit_generator.state == b.bit_generator.state


def test_trial_refuses_a_batch_of_inputs():
    weights, _ = _trial_operands(0)
    with pytest.raises(ValueError, match="one input"):
        mac_voltage_trial(weights, np.zeros((2, 128), dtype=int), VariationModel.typical())
