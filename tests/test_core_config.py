"""Table II consistency: every derived roll-up must match the paper."""

import dataclasses
import functools

import pytest

from repro import constants
from repro.arch.accelerator import yoco_spec
from repro.core.config import ArrayConfig, ChipConfig, IMAConfig, TileConfig, paper_config


class TestArrayConfig:
    def test_mcc_array_energy_is_26_5_pj(self):
        assert ArrayConfig().mcc_array_energy_pj == pytest.approx(26.5, rel=0.01)

    def test_array_energy_is_29_6_pj(self):
        assert ArrayConfig().energy_pj == pytest.approx(29.6, rel=0.01)

    def test_mcc_array_area_is_26214_um2(self):
        assert ArrayConfig().mcc_array_area_um2 == pytest.approx(26214, rel=0.001)

    def test_array_area_is_26406_um2(self):
        assert ArrayConfig().area_um2 == pytest.approx(26406, rel=0.001)

    def test_geometry(self):
        cfg = ArrayConfig()
        assert cfg.n_cbs == 32
        assert cfg.n_mccs == 128 * 256
        assert cfg.cb_share_counts == (1, 2, 4, 8, 16, 32, 64, 128)

    def test_rejects_mismatched_groups(self):
        with pytest.raises(ValueError):
            ArrayConfig(row_group_sizes=(1, 1, 2))

    def test_rejects_ragged_cbs(self):
        with pytest.raises(ValueError):
            ArrayConfig(cb_cols=7)

    def test_rejects_bad_activity(self):
        with pytest.raises(ValueError):
            ArrayConfig(activity=1.5)


class TestIMAConfig:
    def test_vmm_energy_matches_text(self):
        # Text: ~4.235 nJ per 1024x256 VMM (Table II's 4325 is a typo).
        assert IMAConfig().vmm_energy_pj == pytest.approx(4235.0, rel=0.001)

    def test_vmm_latency_under_15ns(self):
        cfg = IMAConfig()
        assert cfg.vmm_latency_ns < 15.0
        assert cfg.vmm_latency_ns == pytest.approx(14.8, abs=0.1)

    def test_headline_energy_efficiency(self):
        assert IMAConfig().energy_efficiency_tops_per_watt == pytest.approx(123.8, rel=0.002)

    def test_headline_throughput(self):
        assert IMAConfig().throughput_tops == pytest.approx(34.9, rel=0.005)

    def test_area_is_3_45_mm2(self):
        assert IMAConfig().area_um2 / 1e6 == pytest.approx(3.45, rel=0.005)

    def test_vmm_dimensions(self):
        cfg = IMAConfig()
        assert cfg.input_dim == 1024
        assert cfg.output_dim == 256
        assert cfg.n_tdcs == 256
        assert cfg.ops_per_vmm == 2 * 1024 * 256

    def test_power_gated_grid_scales_costs(self):
        full = IMAConfig()
        half = dataclasses.replace(full, grid_rows=4)
        assert half.input_dim == 512
        assert half.vmm_energy_pj < full.vmm_energy_pj


class TestTileAndChip:
    def test_tile_area_near_27_8_mm2(self):
        assert TileConfig().area_um2 / 1e6 == pytest.approx(27.8, rel=0.01)

    def test_chip_area_near_111_2_mm2(self):
        assert ChipConfig().area_um2 / 1e6 == pytest.approx(111.2, rel=0.01)

    def test_edram_totals_160_kb(self):
        assert TileConfig().edram_bytes == 160 * 1024

    def test_hybrid_capacity_ratio(self):
        # ReRAM clusters are 4x deeper than SRAM clusters (32 vs 8 bits).
        tile = TileConfig()
        assert tile.sima_weight_capacity_bytes == 4 * tile.dima_weight_capacity_bytes

    def test_chip_sima_capacity_is_134mb(self):
        # 4 tiles x 4 SIMAs x (1024x256 weights) x 32 contexts.
        cap = ChipConfig().sima_weight_capacity_bytes
        assert cap == 4 * 4 * 1024 * 256 * 32

    def test_chip_counts(self):
        cfg = ChipConfig()
        assert cfg.n_imas == 32
        assert cfg.peak_throughput_tops == pytest.approx(32 * 34.9, rel=0.005)

    def test_paper_config_is_default(self):
        assert paper_config() == ChipConfig()

    def test_tile_holds_four_dynamic_and_four_static_imas(self):
        tile = TileConfig()
        assert (tile.n_dima, tile.n_sima, tile.n_imas) == (4, 4, 8)

    def test_context_depths(self):
        tile = TileConfig()
        assert tile.dima_contexts == constants.SRAM_BITS_PER_CLUSTER == 8
        assert tile.sima_contexts == constants.RERAM_BITS_PER_CLUSTER == 32

    @pytest.mark.parametrize(
        "path, anchor",
        [
            ("tile.ima.buffer_energy_pj_per_256b", 2.9),
            ("tile.ima.buffer_latency_ns_per_256b", 0.112),
            ("tile.sfu_energy_pj", 0.6),
            ("tile.sfu_latency_ns", 0.1),
            ("tile.sfu_count", 128),
            ("tile.edram_energy_pj_per_bit", 0.1),
            ("tile.crossbar_latency_ns_per_256b", 0.25),
            ("noc_energy_pj_per_bit", 0.08),
            ("hyperlink_energy_pj_per_bit", 1.6),
            ("hyperlink_bandwidth_gbps", 6.4),
        ],
    )
    def test_table_ii_cost_anchors(self, path, anchor):
        value = functools.reduce(getattr, path.split("."), ChipConfig())
        assert value == pytest.approx(anchor, rel=1e-12)

    def test_unit_counts(self):
        cfg = ChipConfig()
        tile = cfg.tile
        assert cfg.n_tiles * tile.n_dima == cfg.n_tiles * tile.n_sima == 16
        assert cfg.n_tiles * tile.sfu_count == 512

    def test_counts_follow_the_config(self):
        half = ChipConfig(n_tiles=2)
        assert half.n_imas == 16
        assert 2 * half.sima_weight_capacity_bytes == ChipConfig().sima_weight_capacity_bytes

    def test_yoco_prices_weight_writes_from_constants(self):
        # The hybrid gap: ReRAM SIMA writes cost three orders more than
        # SRAM DIMA writes, and the simulator's YOCO spec reads the SRAM one.
        assert constants.RERAM_WRITE_PJ_PER_BIT == pytest.approx(2.0, rel=1e-12)
        assert constants.SRAM_WRITE_PJ_PER_BIT == pytest.approx(0.0012, rel=1e-12)
        assert yoco_spec().dynamic_write_pj_per_bit == constants.SRAM_WRITE_PJ_PER_BIT

    def test_one_ima_context_holds_1024_by_256_weights(self):
        assert TileConfig().weights_per_ima == 1024 * 256

    def test_dima_capacity_per_tile_is_8_mb(self):
        # 4 DIMAs x (1024x256 weights) x 8 SRAM contexts.
        assert TileConfig().dima_weight_capacity_bytes == 4 * 1024 * 256 * 8

    @pytest.mark.parametrize("n_tiles", [1, 2, 4, 8])
    def test_sima_capacity_scales_with_tiles(self, n_tiles):
        cfg = ChipConfig(n_tiles=n_tiles)
        assert cfg.sima_weight_capacity_bytes == n_tiles * 32 * 1024 * 1024
        assert cfg.n_imas == 8 * n_tiles

    def test_chip_peak_throughput_rolls_up(self):
        # 32 IMAs, each at the 34.9 TOPS headline.
        cfg = ChipConfig()
        assert cfg.peak_throughput_tops == pytest.approx(
            32 * cfg.tile.ima.throughput_tops, rel=1e-12
        )
        assert cfg.peak_throughput_tops == pytest.approx(32 * 34.9, rel=0.005)

    def test_area_with_links_adds_the_hyperlink_phy(self):
        cfg = ChipConfig()
        assert cfg.area_with_links_um2 - cfg.area_um2 == pytest.approx(5.7e6)
