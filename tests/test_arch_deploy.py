"""Chip deployment backend: accuracy and the simulator's prices from one run."""

import numpy as np
import pytest

from repro import constants
from repro.arch.deploy import ChipBackend
from repro.arch.simulator import ArchitectureSimulator
from repro.models.workload import GemmShape, LayerKind, LayerSpec
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


def _simulated(m, k, n):
    layer = LayerSpec("gemm", LayerKind.FC, GemmShape(m, k, n))
    return ArchitectureSimulator().simulate_layer(layer)


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

    def test_report_compute_matches_the_engines(self, deployed):
        backend, _, _ = deployed
        report = backend.report()
        assert report.vmm_count == backend.total_vmm_count
        assert report.compute_energy_pj == pytest.approx(
            backend.total_energy_pj, rel=1e-12
        )

    def test_static_layers_programmed_once(self, deployed):
        backend, _, _ = deployed
        report = backend.report()
        # The CNN's convs/linears never change: all static, none dynamic.
        assert report.dynamic_layers == 0
        assert report.static_layers > 0
        # One-time SIMA programming: the unique weight bits at ReRAM cost.
        weight_bytes = sum(w.size for w in backend._layer_weights.values())
        assert report.static_weight_bytes == weight_bytes > 0
        assert report.weight_write_energy_pj == pytest.approx(
            weight_bytes * 8 * constants.RERAM_WRITE_PJ_PER_BIT, rel=1e-12
        )


class TestReportPrices:
    def test_report_is_simulate_layer_summed_plus_writes(self):
        """The report on a fixed GEMM sequence, priced by hand.

        ``fc`` is programmed once and reused; ``scores`` is programmed, then
        overwritten with a new matrix (a dynamic operand).  Compute and
        movement are ``simulate_layer`` summed over the four GEMMs.  The
        static ``fc`` matrix is one ReRAM write; the dynamic ``scores``
        operand is two SRAM writes, its first programming included, as
        ``simulate_layer`` bills a dynamic operand on every write.
        """
        rng = np.random.default_rng(7)
        backend = ChipBackend(seed=0)
        w_fc = rng.normal(size=(16, 8))
        backend.matmul("fc", rng.normal(size=(3, 16)), w_fc)
        backend.matmul("fc", rng.normal(size=(2, 16)), w_fc)
        backend.matmul("scores", rng.normal(size=(3, 16)), rng.normal(size=(16, 4)))
        backend.matmul("scores", rng.normal(size=(3, 16)), rng.normal(size=(16, 4)))

        gemms = [(3, 16, 8), (2, 16, 8), (3, 16, 4), (3, 16, 4)]
        layers = [_simulated(*gemm) for gemm in gemms]
        report = backend.report()
        assert report.vmm_count == sum(layer.vmm_count for layer in layers) == 11
        assert report.compute_energy_pj == pytest.approx(
            sum(layer.compute_energy_pj for layer in layers), rel=1e-12
        )
        # Inputs and outputs through eDRAM and the NoC, 8 bits each.
        movement = sum(layer.data_movement_energy_pj for layer in layers)
        assert report.movement_energy_pj == pytest.approx(movement, rel=1e-12)
        assert movement == pytest.approx((1408 + 64 * 8) * (0.1 + 0.08), rel=1e-12)
        assert report.weight_write_energy_pj == pytest.approx(
            16 * 8 * 8 * constants.RERAM_WRITE_PJ_PER_BIT
            + 2 * 16 * 4 * 8 * constants.SRAM_WRITE_PJ_PER_BIT,
            rel=1e-12,
        )
        assert (report.static_layers, report.dynamic_layers) == (1, 1)
        assert report.static_weight_bytes == 16 * 8


    @pytest.mark.parametrize(
        "m, k, n",
        [(1, 16, 8), (4, 64, 3), (2, 1024, 256), (1, 1025, 10), (3, 100, 257)],
    )
    def test_one_gemm_is_priced_as_simulate_layer(self, m, k, n):
        rng = np.random.default_rng(m * k * n)
        backend = ChipBackend(seed=0)
        backend.matmul("fc", rng.normal(size=(m, k)), rng.normal(size=(k, n)))
        layer = _simulated(m, k, n)
        report = backend.report()
        assert report.vmm_count == layer.vmm_count == backend.total_vmm_count
        assert report.compute_energy_pj == pytest.approx(
            layer.compute_energy_pj, rel=1e-12
        )
        assert report.movement_energy_pj == pytest.approx(
            layer.data_movement_energy_pj, rel=1e-12
        )
        # A first programming pins the matrix in ReRAM.
        assert report.static_weight_bytes == k * n
        assert report.weight_write_energy_pj == pytest.approx(
            k * n * 8 * constants.RERAM_WRITE_PJ_PER_BIT, rel=1e-12
        )

    def test_breakdown_names_each_term(self):
        rng = np.random.default_rng(11)
        backend = ChipBackend(seed=0)
        backend.matmul("fc", rng.normal(size=(2, 32)), rng.normal(size=(32, 8)))
        report = backend.report()
        assert report.breakdown() == {
            "compute": report.compute_energy_pj,
            "data_movement": report.movement_energy_pj,
            "weight_writes": report.weight_write_energy_pj,
        }
        assert report.total_energy_pj == sum(report.breakdown().values())


class TestDynamicDetection:
    def test_changing_operand_marks_dynamic(self, rng):
        backend = ChipBackend(seed=1)
        x = rng.normal(size=(2, 16))
        backend.matmul("scores", x, rng.normal(size=(16, 8)))
        backend.matmul("scores", x, rng.normal(size=(16, 8)))  # new matrix
        report = backend.report()
        assert report.dynamic_layers == 1
        assert report.static_weight_bytes == 0

    def test_reset_clears_state(self, rng):
        backend = ChipBackend(seed=3)
        backend.matmul("l", rng.normal(size=(1, 8)), rng.normal(size=(8, 4)))
        backend.reset()
        report = backend.report()
        assert report.vmm_count == 0
        assert report.total_energy_pj == 0.0

    def test_returning_to_an_earlier_matrix_is_another_write(self, rng):
        backend = ChipBackend(seed=4)
        x = rng.normal(size=(1, 16))
        w_a, w_b = rng.normal(size=(16, 4)), rng.normal(size=(16, 4))
        for w in (w_a, w_b, w_a):
            backend.matmul("scores", x, w)
        bits = 16 * 4 * 8
        assert backend.report().weight_write_energy_pj == pytest.approx(
            3 * bits * constants.SRAM_WRITE_PJ_PER_BIT,
            rel=1e-12,
        )

    def test_reused_matrix_is_programmed_once(self, rng):
        backend = ChipBackend(seed=5)
        w = rng.normal(size=(16, 8))
        for _ in range(3):
            backend.matmul("fc", rng.normal(size=(2, 16)), w)
        report = backend.report()
        assert (report.static_layers, report.dynamic_layers) == (1, 0)
        assert report.weight_write_energy_pj == pytest.approx(
            16 * 8 * 8 * constants.RERAM_WRITE_PJ_PER_BIT, rel=1e-12
        )
        # Every call still computes: three GEMMs of one shape.
        layer = _simulated(2, 16, 8)
        assert report.vmm_count == 3 * layer.vmm_count
        assert report.compute_energy_pj == pytest.approx(
            3 * layer.compute_energy_pj, rel=1e-12
        )

    def test_layers_are_classified_independently(self, rng):
        backend = ChipBackend(seed=6)
        x = rng.normal(size=(1, 16))
        w_fc = rng.normal(size=(16, 8))
        for _ in range(2):
            backend.matmul("fc", x, w_fc)
            backend.matmul("scores", x, rng.normal(size=(16, 4)))
        report = backend.report()
        assert (report.static_layers, report.dynamic_layers) == (1, 1)
        assert report.static_weight_bytes == 16 * 8
