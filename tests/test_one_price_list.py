"""One YOCO price list: the GEMM engine bills a GEMM as the simulator does.

Both :class:`~repro.core.engine.YocoMatmulEngine` and
:class:`~repro.arch.simulator.ArchitectureSimulator` price a power-gated VMM
through :func:`~repro.core.config.gated_vmm_energy_pj`, on the whole GEMM's
active-MAC fraction.  The sweep covers every distinct GEMM of the ten
benchmark workloads and of the trained stand-in networks, at ``m = 1``
(VMM count and energy are both linear in ``m``).
"""

import dataclasses

import numpy as np
import pytest

from repro.arch.accelerator import yoco_spec
from repro.arch.simulator import ArchitectureSimulator
from repro.core.config import IMAConfig, gated_vmm_energy_pj
from repro.core.engine import YocoMatmulEngine
from repro.models.workload import GemmShape, LayerKind, LayerSpec
from repro.models.zoo import BENCHMARK_MODELS, get_workload
from repro.nn import zoo as nn_zoo
from repro.nn.backend import FloatBackend, InferenceContext
from repro.nn.datasets import synthetic_images, synthetic_sequences


class _ShapeRecorder(FloatBackend):
    """A float backend that records every GEMM's (k, n)."""

    def __init__(self) -> None:
        self.shapes = set()

    def matmul(self, name, x, w):
        self.shapes.add(np.shape(w))
        return super().matmul(name, x, w)


_CNN_BUILDERS = {
    "cnn_small": nn_zoo.build_cnn_small,
    "cnn_deep": nn_zoo.build_cnn_deep,
    "cnn_wide": nn_zoo.build_cnn_wide,
    "cnn_compact": nn_zoo.build_cnn_compact,
}
_TRANSFORMER_BUILDERS = {
    "transformer_small": nn_zoo.build_transformer_small,
    "transformer_tiny": nn_zoo.build_transformer_tiny,
}


def _nn_model_shapes(name):
    recorder = _ShapeRecorder()
    if name in _CNN_BUILDERS:
        data = synthetic_images(n_train=4, n_test=4, seed=0)
        build = _CNN_BUILDERS[name]
    else:
        data = synthetic_sequences(n_train=4, n_test=4, seed=0)
        build = _TRANSFORMER_BUILDERS[name]
    model = build(n_classes=data.n_classes, seed=0)
    model.infer(data.x_test, InferenceContext(backend=recorder))
    return recorder.shapes


def _workload_shapes(name):
    return {(layer.gemm.k, layer.gemm.n) for layer in get_workload(name).layers}


_NN_MODELS = sorted(_CNN_BUILDERS) + sorted(_TRANSFORMER_BUILDERS)
_SOURCES = [("zoo", name) for name in BENCHMARK_MODELS] + [
    ("nn", name) for name in _NN_MODELS
]


def _source_shapes(source, name):
    return _workload_shapes(name) if source == "zoo" else _nn_model_shapes(name)


def _simulated(k, n):
    layer = LayerSpec("gemm", LayerKind.FC, GemmShape(1, k, n))
    return ArchitectureSimulator().simulate_layer(layer)


def _engine_bill(k, n):
    """The ideal engine's VMM count and energy for one (1, k, n) GEMM.

    The weight operand is a read-only zero view, so even the 4096 x 32000
    vocabulary projection costs no more memory than one IMA tile.
    """
    engine = YocoMatmulEngine(mode="ideal")
    weights = np.broadcast_to(np.uint8(0), (k, n))
    engine.matmul_unsigned(np.zeros((1, k), dtype=np.uint8), weights)
    return engine.vmm_count, engine.total_energy_pj


def test_sweep_covers_every_distinct_gemm():
    zoo = set().union(*(_workload_shapes(name) for name in BENCHMARK_MODELS))
    assert len(zoo) == 135
    nn = set().union(*(_nn_model_shapes(name) for name in _NN_MODELS))
    assert nn - zoo  # the stand-in networks add shapes of their own


@pytest.mark.parametrize(
    "source, name", _SOURCES, ids=[f"{s}:{n}" for s, n in _SOURCES]
)
def test_engine_bills_every_zoo_gemm_like_simulate_layer(source, name):
    for k, n in sorted(_source_shapes(source, name)):
        simulated = _simulated(k, n)
        vmm_count, energy_pj = _engine_bill(k, n)
        assert vmm_count == simulated.vmm_count, (k, n)
        assert energy_pj == pytest.approx(
            simulated.compute_energy_pj, rel=1e-12
        ), (k, n)


@pytest.mark.parametrize(
    "k, n, energy_pj",
    [
        (1024, 256, 4235.8),  # a full IMA: no gating
        (512, 128, 1058.9),  # a quarter of the MACs
        (128, 32, 66.2),  # 1/64 of the MACs: at the floor
        (1280, 10, 206.8),  # two K-tiles, priced on the whole GEMM
    ],
)
def test_gated_vmm_prices(k, n, energy_pj):
    _, billed = _engine_bill(k, n)
    assert billed == pytest.approx(energy_pj, abs=0.05)


def test_engine_bills_once_per_gemm_not_per_tile():
    # Two K-tiles, (1024, 10) and (256, 10).  Billed per tile, the first
    # would cost 10,240 / 262,144 of a VMM and the second the 1/64 floor
    # (231.6 pJ); billed on the whole GEMM, each of the two VMMs costs
    # 12,800 / 524,288 of one (206.8 pJ).
    full = IMAConfig().vmm_energy_pj
    _, billed = _engine_bill(1280, 10)
    assert billed == gated_vmm_energy_pj(full, 1280 * 10 / (2 * 1024 * 256), 2)
    per_tile = gated_vmm_energy_pj(full, 10240 / 262144, 1) + full / 64
    assert per_tile == pytest.approx(231.6, abs=0.05)
    assert billed == pytest.approx(206.8, abs=0.05)


def test_floor_is_one_array_of_the_grid():
    assert gated_vmm_energy_pj(64.0, 0.0, 3) == 3.0
    assert gated_vmm_energy_pj(64.0, 0.5, 3) == 96.0
    assert gated_vmm_energy_pj(64.0, 1.0, 0) == 0.0


def test_engine_accumulates_across_calls():
    engine = YocoMatmulEngine(mode="ideal")
    for m in (1, 3):
        engine.matmul_unsigned(
            np.zeros((m, 300), dtype=np.uint8), np.zeros((300, 70), dtype=np.uint8)
        )
    simulated = _simulated(300, 70)
    assert engine.vmm_count == 4 * simulated.vmm_count
    assert engine.total_energy_pj == pytest.approx(
        4 * simulated.compute_energy_pj, rel=1e-12
    )


_TILE_EDGES = [
    (1, 1, 1),
    (1, 1023, 255),
    (1, 1024, 256),
    (1, 1025, 256),
    (1, 1024, 257),
    (2, 2048, 512),
    (3, 1, 300),
    (5, 4096, 1),
]


@pytest.mark.parametrize("m, k, n", _TILE_EDGES)
def test_engine_matches_simulate_layer_at_tile_edges(m, k, n):
    rng = np.random.default_rng(k * 1000 + n)
    x = rng.integers(0, 256, size=(m, k), dtype=np.uint8)
    w = rng.integers(0, 256, size=(k, n), dtype=np.uint8)
    engine = YocoMatmulEngine(mode="ideal")
    out = engine.matmul_unsigned(x, w)
    # The ideal engine is exact, whatever the padding of the edge tiles.
    assert np.array_equal(out, x.astype(np.int64) @ w.astype(np.int64))
    vmm_count = m * -(-k // 1024) * -(-n // 256)
    layer = LayerSpec("gemm", LayerKind.FC, GemmShape(m, k, n))
    simulated = ArchitectureSimulator().simulate_layer(layer)
    assert engine.vmm_count == simulated.vmm_count == vmm_count
    assert engine.total_energy_pj == pytest.approx(
        simulated.compute_energy_pj, rel=1e-12
    )
    assert engine.total_latency_ns == pytest.approx(
        vmm_count * IMAConfig().vmm_period_ns, rel=1e-12
    )


@pytest.mark.parametrize("fraction", [1 / 64, 0.1, 0.25, 0.5, 1.0])
def test_gated_price_is_linear_above_the_floor(fraction):
    full = IMAConfig().vmm_energy_pj
    assert gated_vmm_energy_pj(full, fraction, 1) == full * fraction
    assert gated_vmm_energy_pj(full, fraction, 7) == 7 * (full * fraction)


@pytest.mark.parametrize("fraction", [0.0, 1e-6, 1 / 128])
def test_gated_price_below_the_floor_costs_one_array(fraction):
    full = IMAConfig().vmm_energy_pj
    assert gated_vmm_energy_pj(full, fraction, 1) == full / 64
    assert gated_vmm_energy_pj(full, fraction, 4) == 4 * (full / 64)


def test_ungated_spec_bills_whole_vmms():
    # ISAAC-style units without power gating pay a full VMM per tile.
    spec = dataclasses.replace(yoco_spec(), power_gating=False)
    layer = LayerSpec("gemm", LayerKind.FC, GemmShape(1, 128, 32))
    ungated = ArchitectureSimulator(spec).simulate_layer(layer)
    assert ungated.vmm_count == 1
    assert ungated.compute_energy_pj == spec.unit_vmm_energy_pj
    assert _simulated(128, 32).compute_energy_pj == pytest.approx(
        spec.unit_vmm_energy_pj / 64, rel=1e-12
    )
