"""Architecture layer: mapper, simulator, pipeline."""

import dataclasses

import pytest

from repro.arch import (
    ArchitectureSimulator,
    AttentionPipelineModel,
    FIG10_GEOMETRIES,
    geometric_mean,
    map_layer,
    yoco_spec,
)
from repro.arch.pipeline import AttentionGeometry, geometry_for_workload
from repro.baselines import isaac_spec
from repro.core.config import TileConfig
from repro.models import get_workload
from repro.models.workload import GemmShape, LayerKind, LayerSpec


def _layer(m, k, n, static=True, repeat=1, kind=LayerKind.FC):
    return LayerSpec("l", kind, GemmShape(m, k, n), static_weights=static, repeat=repeat)


class TestMapper:
    def test_exact_fit(self):
        plan = map_layer(_layer(10, 1024, 256), yoco_spec())
        assert plan.k_tiles == 1 and plan.n_tiles == 1
        assert plan.vmm_count == 10
        assert plan.utilization == pytest.approx(1.0)

    def test_tiling_counts(self):
        plan = map_layer(_layer(4, 2500, 600), yoco_spec())
        assert plan.k_tiles == 3
        assert plan.n_tiles == 3
        assert plan.vmm_count == 4 * 9

    def test_utilization_of_ragged_layer(self):
        plan = map_layer(_layer(1, 512, 128), yoco_spec())
        assert plan.utilization == pytest.approx(512 * 128 / (1024 * 256))

    def test_block_diagonal_packing_of_repeats(self):
        # 12 attention heads of (128, 64, 128): pack = min(16, 2, 12) = 2.
        plan = map_layer(
            _layer(128, 64, 128, static=False, repeat=12, kind=LayerKind.ATTENTION_SCORE),
            yoco_spec(),
        )
        assert plan.pack_factor == 2
        assert plan.vmm_count == 128 * 6

    def test_depthwise_packing(self):
        plan = map_layer(
            _layer(196, 9, 1, repeat=72, kind=LayerKind.DEPTHWISE_CONV), yoco_spec()
        )
        assert plan.pack_factor == 72  # min(113, 256, 72)
        assert plan.vmm_count == 196

    def test_packing_respects_unit_grain(self):
        plan = map_layer(_layer(4, 2048, 16, repeat=4), yoco_spec())
        assert plan.pack_factor == 1  # k exceeds one unit: no packing


class TestAcceleratorSpec:
    def test_yoco_peak_numbers(self):
        spec = yoco_spec()
        assert spec.peak_tops_per_watt == pytest.approx(123.8, rel=0.002)
        assert spec.peak_tops == pytest.approx(32 * 34.9, rel=0.005)

    def test_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(yoco_spec(), n_units=0)


class TestSimulator:
    def test_energy_scales_with_work(self):
        sim = ArchitectureSimulator(yoco_spec())
        small = sim.simulate_layer(_layer(1, 1024, 256))
        big = sim.simulate_layer(_layer(10, 1024, 256))
        assert big.energy_pj == pytest.approx(10 * small.compute_energy_pj
                                              + big.data_movement_energy_pj, rel=0.2)

    def test_power_gating_discounts_partial_tiles(self):
        sim = ArchitectureSimulator(yoco_spec())
        full = sim.simulate_layer(_layer(1, 1024, 256))
        partial = sim.simulate_layer(_layer(1, 128, 256))
        assert partial.compute_energy_pj < full.compute_energy_pj / 4

    def test_no_power_gating_for_isaac(self):
        sim = ArchitectureSimulator(isaac_spec())
        full = sim.simulate_layer(_layer(1, 128, 32))
        partial = sim.simulate_layer(_layer(1, 16, 32))
        assert partial.compute_energy_pj == pytest.approx(full.compute_energy_pj)

    def test_dynamic_layers_pay_write_energy(self):
        sim = ArchitectureSimulator(yoco_spec())
        static = sim.simulate_layer(_layer(8, 256, 256, static=True))
        dynamic = sim.simulate_layer(_layer(8, 256, 256, static=False))
        assert static.weight_write_energy_pj == 0.0
        assert dynamic.weight_write_energy_pj > 0.0

    def test_dynamic_write_cost_dwarfs_on_reram(self):
        yoco = ArchitectureSimulator(yoco_spec()).simulate_layer(
            _layer(8, 256, 256, static=False)
        )
        isaac = ArchitectureSimulator(isaac_spec()).simulate_layer(
            _layer(8, 256, 256, static=False)
        )
        assert isaac.weight_write_energy_pj > 1000 * yoco.weight_write_energy_pj

    def test_replication_bounds_latency(self):
        sim = ArchitectureSimulator(yoco_spec())
        serial = sim.simulate_layer(_layer(64, 1024, 256), max_replicas=1)
        replicated = sim.simulate_layer(_layer(64, 1024, 256), max_replicas=32)
        assert replicated.compute_latency_ns < serial.compute_latency_ns

    def test_weights_resident_default_has_no_offchip_latency(self):
        sim = ArchitectureSimulator(yoco_spec())
        run = sim.run(get_workload("llama3_7b"))
        assert all(l.data_latency_ns == 0.0 for l in run.layers)

    def test_capacity_mode_streams_overflow(self):
        sim = ArchitectureSimulator(yoco_spec(), weights_resident=False)
        run = sim.run(get_workload("llama3_7b"))
        assert any(l.data_latency_ns > 0.0 for l in run.layers)

    def test_overflow_weights_stream_at_the_hyperlink_rate(self):
        # 64 weight bytes at 6.4 GB/s take 10 ns and 512 bits x 1.6 pJ.
        sim = ArchitectureSimulator(yoco_spec())
        resident = sim.simulate_layer(_layer(1, 8, 8))
        streamed = sim.simulate_layer(_layer(1, 8, 8), static_overflow=True)
        assert streamed.data_latency_ns == pytest.approx(10.0, rel=1e-12)
        assert streamed.data_movement_energy_pj - resident.data_movement_energy_pj == (
            pytest.approx(512 * 1.6, rel=1e-12)
        )

    def test_run_result_rollups(self):
        sim = ArchitectureSimulator(yoco_spec())
        run = sim.run(get_workload("resnet18"))
        assert run.total_ops == get_workload("resnet18").total_ops
        assert run.energy_pj == pytest.approx(
            sum(l.energy_pj for l in run.layers)
        )
        assert run.throughput_tops > 0
        assert 0.0 < run.mean_utilization() <= 1.0
        breakdown = run.energy_breakdown_pj()
        assert breakdown["compute"] > 0


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])


class TestPipeline:
    def test_speedup_in_paper_band(self):
        model = AttentionPipelineModel()
        for geom in FIG10_GEOMETRIES.values():
            result = model.evaluate(geom)
            assert 1.5 <= result.speedup <= 4.0, geom.name

    def test_pipelined_never_slower(self):
        model = AttentionPipelineModel()
        for geom in FIG10_GEOMETRIES.values():
            result = model.evaluate(geom)
            assert result.pipelined_ns <= result.sequential_ns

    def test_pipelined_bounded_by_bottleneck(self):
        """Speedup cannot exceed the number of pipeline stages (5)."""
        model = AttentionPipelineModel()
        for geom in FIG10_GEOMETRIES.values():
            assert model.evaluate(geom).speedup <= 5.0

    def test_mobilebert_pipelines_best(self):
        model = AttentionPipelineModel()
        speedups = {n: model.evaluate(g).speedup for n, g in FIG10_GEOMETRIES.items()}
        assert max(speedups, key=speedups.get) == "mobilebert"

    def test_stage_latencies_grow_with_context(self):
        model = AttentionPipelineModel()
        geom = FIG10_GEOMETRIES["gpt_large"]
        early = model.token_stages(geom, 0)
        late = model.token_stages(geom, geom.seq_len - 1)
        assert late.score_ns >= early.score_ns
        assert late.av_ns >= early.av_ns

    @pytest.mark.parametrize(
        "dim, kv_dim, windows",
        # 8 bits per q/k/v element: 192, 256 and 272 bits.
        [(8, 8, 1), (16, 8, 1), (16, 9, 2)],
    )
    def test_crossbar_stage_counts_256_bit_windows(self, dim, kv_dim, windows):
        geom = AttentionGeometry("x", dim, kv_dim, 1, 1, causal=True)
        stages = AttentionPipelineModel().token_stages(geom, 0)
        # Plus one 0.5 ns SRAM row write for the appended key.
        assert stages.xfer_ns == pytest.approx(windows * 0.25 + 0.5)

    @pytest.mark.parametrize(
        "sfu_count, token_index, waves",
        # Three SFU passes (exp, max, normalizer) per fresh causal score.
        [(128, 0, 1), (128, 41, 1), (128, 42, 2), (64, 21, 2)],
    )
    def test_sfu_stage_counts_lane_waves(self, sfu_count, token_index, waves):
        model = AttentionPipelineModel(TileConfig(sfu_count=sfu_count))
        geom = AttentionGeometry("x", 8, 8, 1, 64, causal=True)
        stages = model.token_stages(geom, token_index)
        assert stages.sfu_ns == pytest.approx(waves * 0.1)

    def test_geometry_lookup(self):
        geom = geometry_for_workload(get_workload("vit"))
        assert geom.dim == 768
        with pytest.raises(ValueError):
            geometry_for_workload(get_workload("resnet18"))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            AttentionGeometry("x", 0, 64, 4, 128, causal=False)
