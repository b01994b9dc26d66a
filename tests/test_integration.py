"""Cross-module integration: the full stack working together."""

import numpy as np
import pytest

from repro.analog.variation import VariationModel
from repro.core import DetailedIMA, InChargeArray, YocoMatmulEngine
from repro.nn import (
    FloatBackend,
    QuantizedBackend,
    YocoBackend,
    evaluate,
    synthetic_images,
    train_classifier,
)
from repro.nn.zoo import build_cnn_small


class TestArrayToIMAConsistency:
    """The IMA's code semantics must follow from the array's voltages."""

    def test_array_voltage_maps_to_code_scale(self, rng):
        ima = DetailedIMA(variation=VariationModel.ideal(), seed=0)
        weights = rng.integers(0, 256, (1024, 256))
        ima.program_weights(weights)
        x = rng.integers(0, 256, 1024)
        codes = ima.vmm(x)
        dots = x @ weights
        # code = dot / (1024 * 255), the TDC scale derived in core.ima.
        expected = np.clip(np.rint(dots / (1024 * 255)), 0, 255)
        assert np.array_equal(codes, expected)

    def test_single_array_block_matches_standalone_array(self, rng):
        """Array (0,0) of an ideal IMA behaves like a standalone array."""
        ima = DetailedIMA(variation=VariationModel.ideal(), seed=1)
        weights = np.zeros((1024, 256), dtype=np.int64)
        block = rng.integers(0, 256, (128, 32))
        weights[:128, :32] = block  # grid position (0, 0)
        ima.program_weights(weights)
        standalone = InChargeArray(variation=VariationModel.ideal(), seed=2)
        standalone.program_weights(block)
        x = np.zeros(1024, dtype=np.int64)
        x_block = rng.integers(0, 256, 128)
        x[:128] = x_block
        v = standalone.vmm_voltages(x_block)
        codes = ima.vmm(x)
        # Stage sum = single array voltage; code = v * 256/(8*VDD) rounded.
        expected = np.clip(np.rint(v * 256 / (8 * 0.9)), 0, 255)
        assert np.array_equal(codes[:32], expected)


class TestQuantizedInferencePipeline:
    @pytest.fixture(scope="class")
    def trained(self):
        ds = synthetic_images(n_train=192, n_test=96, noise=1.0, seed=0)
        model = build_cnn_small(n_classes=ds.n_classes, seed=1)
        train_classifier(model, ds, epochs=5, batch_size=32, lr=2e-3, seed=2)
        return model, ds

    def test_accuracy_ordering_float_int8_yoco(self, trained):
        model, ds = trained
        acc_float = evaluate(model, ds.x_test, ds.y_test, FloatBackend())
        acc_int8 = evaluate(model, ds.x_test, ds.y_test, QuantizedBackend())
        acc_yoco = evaluate(model, ds.x_test, ds.y_test, YocoBackend(mode="fast", seed=3))
        assert acc_float > 0.75
        assert abs(acc_float - acc_int8) < 0.05
        assert abs(acc_float - acc_yoco) < 0.08

    def test_yoco_backend_reports_compute_energy(self, trained):
        model, ds = trained
        backend = YocoBackend(mode="fast", seed=4)
        evaluate(model, ds.x_test[:16], ds.y_test[:16], backend)
        assert backend.total_energy_pj > 0
        assert backend.total_vmm_count > 0


class TestEngineModesAgree:
    def test_fast_and_detailed_agree_statistically(self, rng):
        x = rng.integers(0, 256, (2, 128))
        w = rng.integers(0, 256, (128, 32))
        exact = (x.astype(np.int64) @ w).astype(float)
        fast = YocoMatmulEngine(mode="fast", seed=5).matmul_unsigned(x, w)
        detailed = YocoMatmulEngine(mode="detailed", seed=5).matmul_unsigned(x, w)
        scale = 128 * 255  # one code
        assert np.abs(fast - exact).max() / scale < 3.0
        assert np.abs(detailed - exact).max() / scale < 3.0
