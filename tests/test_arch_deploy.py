"""Chip deployment backend: accuracy + ledger from one simulation."""

import pytest

from repro.arch.deploy import ChipBackend
from repro.nn import evaluate, synthetic_images, train_classifier
from repro.nn.backend import FloatBackend
from repro.nn.zoo import build_cnn_small


@pytest.fixture(scope="module")
def deployed():
    ds = synthetic_images(n_train=192, n_test=96, noise=1.0, seed=0)
    model = build_cnn_small(n_classes=ds.n_classes, seed=1)
    train_classifier(model, ds, epochs=5, batch_size=32, lr=2e-3, seed=2)
    backend = ChipBackend(seed=0)
    accuracy = evaluate(model, ds.x_test, ds.y_test, backend)
    float_accuracy = evaluate(model, ds.x_test, ds.y_test, FloatBackend())
    return backend, accuracy, float_accuracy


class TestChipBackend:
    def test_accuracy_close_to_float(self, deployed):
        _, accuracy, float_accuracy = deployed
        assert abs(float_accuracy - accuracy) < 0.08

    def test_report_totals_consistent(self, deployed):
        backend, _, _ = deployed
        report = backend.report()
        assert report.total_energy_pj == pytest.approx(
            sum(report.breakdown().values())
        )
        assert report.vmm_count > 0
        assert report.compute_energy_pj > 0
        assert report.movement_energy_pj > 0

    def test_static_layers_programmed_once(self, deployed):
        backend, _, _ = deployed
        report = backend.report()
        # The CNN's convs/linears never change: all static, none dynamic.
        assert report.dynamic_layers == 0
        assert report.static_layers > 0
        # One-time SIMA programming: bits equal the unique weight bits.
        sima_bits = backend.chip.ledger.count("sima", "write_weight_bit")
        expected = sum(w.size * 8 for w in backend._layer_weights.values())
        assert sima_bits == pytest.approx(expected)

    def test_movement_billed_to_chip_ledger(self, deployed):
        backend, _, _ = deployed
        ledger = backend.chip.ledger
        assert ledger.count("edram", "read_bit") > 0
        assert ledger.count("edram", "write_bit") > 0
        assert ledger.count("crossbar", "bit") > 0
        assert ledger.count("quant", "op") > 0

    def test_weights_allocated_on_chip(self, deployed):
        backend, _, _ = deployed
        assert backend.chip.allocated_bytes > 0


class TestDynamicDetection:
    def test_changing_operand_marks_dynamic(self, rng):
        backend = ChipBackend(seed=1)
        x = rng.normal(size=(2, 16))
        backend.matmul("scores", x, rng.normal(size=(16, 8)))
        backend.matmul("scores", x, rng.normal(size=(16, 8)))  # new matrix
        report = backend.report()
        assert report.dynamic_layers == 1
        assert backend.chip.ledger.count("dima", "write_weight_bit") > 0

    def test_layers_round_robin_across_tiles(self, rng):
        backend = ChipBackend(seed=2)
        x = rng.normal(size=(1, 8))
        for i in range(6):
            backend.matmul(f"layer{i}", x, rng.normal(size=(8, 4)))
        tiles = set(backend._layer_tile.values())
        assert tiles == {0, 1, 2, 3}

    def test_reset_clears_state(self, rng):
        backend = ChipBackend(seed=3)
        backend.matmul("l", rng.normal(size=(1, 8)), rng.normal(size=(8, 4)))
        backend.reset()
        assert backend.report().vmm_count == 0
