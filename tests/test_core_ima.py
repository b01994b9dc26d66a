"""IMA models: detailed circuit path, fast error model, their agreement."""

import numpy as np
import pytest

from repro.analog.variation import VariationModel
from repro.core.config import IMAConfig
from repro.core.ima import DetailedIMA, FastIMA, IMAErrorModel


@pytest.fixture(scope="module")
def programmed_detailed():
    rng = np.random.default_rng(0)
    ima = DetailedIMA(seed=3)
    ima.program_weights(rng.integers(0, 256, (1024, 256)))
    return ima


class TestDetailedIMA:
    def test_requires_programming(self):
        with pytest.raises(RuntimeError):
            DetailedIMA(seed=0).vmm(np.zeros(1024, dtype=int))

    def test_weight_shape_checked(self):
        with pytest.raises(ValueError):
            DetailedIMA(seed=0).program_weights(np.zeros((1024, 255), dtype=int))

    def test_rejected_weights_leave_every_array_unchanged(self):
        """An out-of-range value in the last block is refused before any
        array takes the new matrix."""
        ima = DetailedIMA(
            config=IMAConfig(grid_rows=2, grid_cols=2),
            variation=VariationModel.ideal(),
            seed=0,
        )
        ima.program_weights(np.zeros((256, 64), dtype=int))
        bad = np.full((256, 64), 200)
        bad[-1, -1] = 300
        with pytest.raises(ValueError, match="weights must be unsigned 8-bit"):
            ima.program_weights(bad)
        assert not ima.weights.any()
        assert not ima.vmm(np.full(256, 255)).any()

    def test_ideal_instance_matches_integer_codes(self, rng):
        ima = DetailedIMA(variation=VariationModel.ideal(), seed=1)
        weights = rng.integers(0, 256, (1024, 256))
        ima.program_weights(weights)
        x = rng.integers(0, 256, 1024)
        assert np.array_equal(ima.vmm(x), ima.ideal_codes(x))

    def test_dot_product_per_code(self, programmed_detailed):
        assert programmed_detailed.dot_product_per_code == 1024 * 255

    def test_end_to_end_error_within_paper_band(self, programmed_detailed, rng):
        errors = []
        for _ in range(4):
            x = rng.integers(0, 256, 1024)
            errors.append(programmed_detailed.code_error(x))
        worst_fraction = np.abs(np.concatenate(errors)).max() / 256.0
        assert worst_fraction < 0.0098  # paper: < 0.98 % of full scale

    def test_dequantized_scale(self, programmed_detailed, rng):
        x = rng.integers(0, 256, 1024)
        dots = programmed_detailed.vmm_dequantized(x)
        ideal = x @ programmed_detailed.weights
        rel = np.abs(dots - ideal).max() / (1024 * 255 * 255)
        assert rel < 0.01

    def test_latency_matches_config(self, programmed_detailed):
        assert programmed_detailed.vmm_latency_ns == pytest.approx(14.8, abs=0.1)


class TestFastIMA:
    def test_zero_noise_matches_ideal_codes(self, rng):
        fast = FastIMA(error_model=IMAErrorModel.ideal(), seed=0)
        weights = rng.integers(0, 256, (1024, 256))
        fast.program_weights(weights)
        x = rng.integers(0, 256, (4, 1024))
        codes = fast.vmm_batch(x)
        ideal = np.clip(
            np.rint((x @ weights) / fast.dot_product_per_code), 0, 255
        ).astype(np.int64)
        assert np.array_equal(codes, ideal)

    def test_input_validation(self, rng):
        fast = FastIMA(seed=0)
        fast.program_weights(rng.integers(0, 256, (1024, 256)))
        with pytest.raises(ValueError):
            fast.vmm_batch(np.full((2, 1024), 256))
        with pytest.raises(ValueError):
            fast.vmm_batch(np.zeros((2, 1000), dtype=int))

    def test_single_vector_interface(self, rng):
        fast = FastIMA(error_model=IMAErrorModel.ideal(), seed=0)
        fast.program_weights(rng.integers(0, 256, (1024, 256)))
        x = rng.integers(0, 256, 1024)
        assert np.array_equal(fast.vmm(x), fast.vmm_batch(x[None, :])[0])

    def test_readout_window_improves_resolution(self, rng):
        weights = rng.integers(0, 256, (1024, 256))
        x = rng.integers(0, 256, (16, 1024))
        dots = (x @ weights).astype(float)
        fast = FastIMA(error_model=IMAErrorModel.ideal(), seed=0)
        fast.program_weights(weights)
        err_full = np.abs(fast.vmm_dequantized_batch(x) - dots).max()
        span = dots.max(axis=0) - dots.min(axis=0)
        fast.set_readout_window(dots.min(axis=0) - 0.1 * span, dots.max(axis=0) + 0.1 * span)
        err_window = np.abs(fast.vmm_dequantized_batch(x) - dots).max()
        assert err_window < err_full / 10

    def test_window_validation(self):
        fast = FastIMA(seed=0)
        with pytest.raises(ValueError):
            fast.set_readout_window(np.zeros(256), np.zeros(256))
        with pytest.raises(ValueError):
            fast.set_readout_window(np.zeros(10), np.ones(10))

    def test_clear_readout_window(self, rng):
        fast = FastIMA(seed=0)
        fast.program_weights(rng.integers(0, 256, (1024, 256)))
        fast.set_readout_window(np.zeros(256), np.ones(256))
        assert fast.has_readout_window
        fast.clear_readout_window()
        assert not fast.has_readout_window


class TestFastModelCalibration:
    """The fast model's error statistics must track the detailed model."""

    def test_code_error_sigma_within_2x_of_detailed(self, programmed_detailed, rng):
        xs = rng.integers(0, 256, (6, 1024))
        detailed_err = np.concatenate(
            [programmed_detailed.code_error(x) for x in xs]
        )
        fast = FastIMA(seed=9)
        fast.program_weights(programmed_detailed.weights)
        ideal = np.clip(
            np.rint((xs @ programmed_detailed.weights) / fast.dot_product_per_code),
            0, 255,
        )
        fast_err = (fast.vmm_batch(xs) - ideal).ravel()
        ratio = fast_err.std() / max(detailed_err.std(), 1e-9)
        assert 0.5 < ratio < 2.0
