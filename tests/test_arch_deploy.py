"""Chip deployment backend: accuracy + ledger from one simulation."""

import numpy as np
import pytest

from repro import constants
from repro.arch.deploy import ChipBackend
from repro.core.chip import Chip
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


class TestLedgerCounts:
    def test_exact_counts_on_a_fixed_gemm_sequence(self):
        """Every action the backend bills, counted exactly.

        ``fc`` is programmed once and reused; ``scores`` is programmed, then
        overwritten with a new matrix (a dynamic operand).  Per GEMM the
        inputs are read from eDRAM and sent over the crossbar (8 bits per
        input code), and each output code is requantized and written back.
        """
        rng = np.random.default_rng(7)
        backend = ChipBackend(seed=0)
        w_fc = rng.normal(size=(16, 8))
        backend.matmul("fc", rng.normal(size=(3, 16)), w_fc)
        backend.matmul("fc", rng.normal(size=(2, 16)), w_fc)
        backend.matmul("scores", rng.normal(size=(3, 16)), rng.normal(size=(16, 4)))
        backend.matmul("scores", rng.normal(size=(3, 16)), rng.normal(size=(16, 4)))

        ledger = backend.chip.ledger
        counts = {(e.component, e.action): e.count for e in ledger.entries()}
        input_bits = (3 + 2 + 3 + 3) * 16 * 8
        outputs = 3 * 8 + 2 * 8 + 3 * 4 + 3 * 4
        assert counts == {
            ("edram", "read_bit"): input_bits,
            ("edram", "write_bit"): outputs * 8,
            ("crossbar", "bit"): input_bits,
            ("quant", "op"): outputs,
            # First programming of fc and of scores: ReRAM writes.
            ("sima", "write_weight_bit"): (16 * 8 + 16 * 4) * 8,
            # The changed scores matrix: one SRAM rewrite.
            ("dima", "write_weight_bit"): 16 * 4 * 8,
        }
        assert input_bits == 1408 and outputs == 64
        assert backend.chip.allocated_bytes == 16 * 8 + 16 * 4
        assert [a.layer_name for a in backend.chip.allocations] == ["fc", "scores"]
        report = backend.report()
        assert (report.static_layers, report.dynamic_layers) == (1, 1)


class TestDynamicDetection:
    def test_changing_operand_marks_dynamic(self, rng):
        backend = ChipBackend(seed=1)
        x = rng.normal(size=(2, 16))
        backend.matmul("scores", x, rng.normal(size=(16, 8)))
        backend.matmul("scores", x, rng.normal(size=(16, 8)))  # new matrix
        report = backend.report()
        assert report.dynamic_layers == 1
        assert backend.chip.ledger.count("dima", "write_weight_bit") > 0

    def test_reset_clears_state(self, rng):
        backend = ChipBackend(seed=3)
        backend.matmul("l", rng.normal(size=(1, 8)), rng.normal(size=(8, 4)))
        backend.reset()
        assert backend.report().vmm_count == 0

    def test_returning_to_an_earlier_matrix_is_another_write(self, rng):
        backend = ChipBackend(seed=4)
        x = rng.normal(size=(1, 16))
        w_a, w_b = rng.normal(size=(16, 4)), rng.normal(size=(16, 4))
        for w in (w_a, w_b, w_a):
            backend.matmul("scores", x, w)
        ledger = backend.chip.ledger
        assert ledger.count("sima", "write_weight_bit") == 16 * 4 * 8
        assert ledger.count("dima", "write_weight_bit") == 2 * 16 * 4 * 8

    def test_given_chip_carries_the_bill(self, rng):
        chip = Chip()
        backend = ChipBackend(chip=chip, seed=5)
        backend.matmul("fc", rng.normal(size=(2, 16)), rng.normal(size=(16, 8)))
        assert backend.chip is chip
        bits = 16 * 8 * 8
        assert backend.report().weight_write_energy_pj == pytest.approx(
            bits * constants.RERAM_WRITE_PJ_PER_BIT, rel=1e-12
        )
        assert chip.allocated_bytes == 16 * 8
