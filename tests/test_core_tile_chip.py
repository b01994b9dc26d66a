"""Tile and chip: crossbar, SFU, eDRAM and quantizer billing, allocator, component library."""

import numpy as np
import pytest

from repro import constants
from repro.core.chip import Chip
from repro.core.components import build_component_library
from repro.core.config import ChipConfig, TileConfig
from repro.core.tile import Tile
from repro.energy.ledger import EnergyLedger


class TestComponentLibrary:
    def test_inventory(self):
        lib = build_component_library(ChipConfig())
        for name in ("ima", "dima", "sima", "sfu", "edram", "crossbar", "noc", "hyperlink", "quant"):
            assert name in lib

    def test_ima_vmm_action_matches_config(self):
        cfg = ChipConfig()
        lib = build_component_library(cfg)
        assert lib.get("ima").action("vmm").energy_pj == pytest.approx(
            cfg.tile.ima.vmm_energy_pj
        )

    def test_sima_write_is_much_costlier_than_dima(self):
        lib = build_component_library(ChipConfig())
        sima = lib.get("sima").action("write_weight_bit").energy_pj
        dima = lib.get("dima").action("write_weight_bit").energy_pj
        assert sima / dima > 1000

    @pytest.mark.parametrize(
        "component, action, energy_pj",
        [
            ("ima", "buffer_256b", 2.9),
            ("dima", "write_weight_bit", constants.SRAM_WRITE_PJ_PER_BIT),
            ("sima", "write_weight_bit", constants.RERAM_WRITE_PJ_PER_BIT),
            ("sfu", "op", 0.6),
            ("edram", "read_bit", 0.1),
            ("edram", "write_bit", 0.115),
            ("crossbar", "bit", 0.02),
            ("noc", "bit_hop", 0.08),
            ("hyperlink", "bit", 1.6),
            ("quant", "op", 0.05),
        ],
    )
    def test_action_energies(self, component, action, energy_pj):
        lib = build_component_library(ChipConfig())
        assert lib.get(component).action(action).energy_pj == pytest.approx(
            energy_pj, rel=1e-12
        )

    def test_buffer_latency_anchor(self):
        # Table II: a 256-bit buffer access takes 0.112 ns.
        lib = build_component_library(ChipConfig())
        assert lib.get("ima").action("buffer_256b").latency_ns == pytest.approx(0.112)

    def test_instance_counts(self):
        lib = build_component_library(ChipConfig())
        counts = {name: lib.get(name).count for name in ("ima", "dima", "sima", "sfu", "edram")}
        assert counts == {"ima": 32, "dima": 16, "sima": 16, "sfu": 512, "edram": 4}

    def test_counts_follow_the_config(self):
        lib = build_component_library(ChipConfig(n_tiles=2))
        assert lib.get("ima").count == 16
        assert lib.get("sima").count == 8


class TestTile:
    def test_structure(self):
        tile = Tile()
        assert (tile.config.n_dima, tile.config.n_sima, tile.config.n_imas) == (4, 4, 8)
        for name in ("dima", "sima", "sfu", "edram", "crossbar", "quant"):
            assert name in tile.ledger.library

    def test_context_depths(self):
        config = Tile().config
        assert config.dima_contexts == constants.SRAM_BITS_PER_CLUSTER == 8
        assert config.sima_contexts == constants.RERAM_BITS_PER_CLUSTER == 32

    def test_weight_write_billing(self):
        tile = Tile()
        bits = 1024 * 256 * 8
        tile.ledger.record("sima", "write_weight_bit", bits)
        tile.ledger.record("dima", "write_weight_bit", bits)
        by_component = tile.ledger.energy_by_component_pj()
        assert by_component["sima"] == pytest.approx(bits * 2.0, rel=1e-12)
        assert by_component["dima"] == pytest.approx(bits * 0.0012, rel=1e-12)
        assert by_component["sima"] > 1000 * by_component["dima"]

    def test_given_ledger_is_billed(self):
        ledger = EnergyLedger(build_component_library(ChipConfig()))
        tile = Tile(ledger=ledger)
        tile.quantize_outputs(3)
        assert tile.ledger is ledger
        assert ledger.count("quant", "op") == 3

    @pytest.mark.parametrize("n_bits, windows", [(0, 0), (1, 1), (256, 1), (257, 2)])
    def test_crossbar_latency_counts_256_bit_windows(self, n_bits, windows):
        assert Tile().crossbar_transfer(n_bits) == pytest.approx(windows * 0.25)

    def test_crossbar_rejects_negative_bits(self):
        tile = Tile()
        with pytest.raises(ValueError):
            tile.crossbar_transfer(-1)
        assert tile.ledger.count("crossbar", "bit") == 0

    @pytest.mark.parametrize("n_elements, waves", [(1, 1), (128, 1), (129, 2)])
    def test_sfu_latency_counts_128_lane_waves(self, n_elements, waves):
        assert Tile().sfu.latency_ns(n_elements) == pytest.approx(waves * 0.1)

    def test_sfu_lane_count_comes_from_the_config(self):
        tile = Tile(TileConfig(sfu_count=64))
        assert tile.sfu.latency_ns(128) == pytest.approx(2 * 0.1)

    def test_sfu_max_and_scale_bill_every_element(self):
        tile = Tile()
        top = tile.sfu.running_max(np.array([1.0, -2.0]), np.array([0.0, 0.0]))
        scaled = tile.sfu.scale(np.ones((2, 3)), 0.5)
        assert top.tolist() == [1.0, 0.0]
        assert np.all(scaled == 0.5)
        assert tile.sfu.op_count == 8
        assert tile.ledger.count("sfu", "op") == 8

    def test_edram_energy(self):
        tile = Tile()
        tile.edram_read(1000)
        tile.edram_write(1000)
        entries = {(e.component, e.action): e.energy_pj for e in tile.ledger.entries()}
        assert entries[("edram", "read_bit")] == pytest.approx(100.0, rel=1e-12)
        # A write costs 15 % more than a read.
        assert entries[("edram", "write_bit")] == pytest.approx(115.0, rel=1e-12)

    def test_edram_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            Tile().edram_read(-8)
    def test_crossbar_transfer(self):
        tile = Tile()
        latency = tile.crossbar_transfer(1024)
        assert latency > 0
        assert tile.ledger.count("crossbar", "bit") == 1024

    def test_sfu_exp_and_billing(self):
        tile = Tile()
        x = np.array([0.0, 1.0, -1.0])
        out = tile.sfu.exp(x)
        assert np.allclose(out, np.exp(x))
        assert tile.sfu.op_count == 3
        assert tile.sfu.latency_ns(256) == pytest.approx(2 * 0.1)

    def test_edram_traffic(self):
        tile = Tile()
        tile.edram_read(2048)
        tile.edram_write(1024)
        assert tile.ledger.count("edram", "read_bit") == 2048
        assert tile.ledger.count("edram", "write_bit") == 1024

    def test_quantize_billing(self):
        tile = Tile()
        tile.quantize_outputs(256)
        assert tile.ledger.count("quant", "op") == 256


class TestChip:
    def test_structure(self):
        chip = Chip()
        assert len(chip.tiles) == 4

    def test_noc_and_hyperlink(self):
        chip = Chip()
        noc_lat = chip.noc_transfer(512, hops=2)
        ht_lat = chip.hyperlink_transfer(512)
        assert noc_lat == pytest.approx(4.0)
        assert ht_lat > 0
        assert chip.ledger.count("noc", "bit_hop") == 1024
        assert chip.ledger.count("hyperlink", "bit") == 512

    def test_allocator_tracks_occupancy(self):
        chip = Chip()
        alloc = chip.allocate_weights("layer1", 10 * 1024 * 1024)
        assert alloc.fits_on_chip
        assert chip.allocated_bytes == 10 * 1024 * 1024

    def test_allocator_flags_overflow(self):
        chip = Chip()
        big = chip.sima_capacity_bytes + 1
        alloc = chip.allocate_weights("huge", big)
        assert not alloc.fits_on_chip

    def test_reset_allocations(self):
        chip = Chip()
        chip.allocate_weights("l", 1024)
        chip.reset_allocations()
        assert chip.allocated_bytes == 0
        assert chip.allocations == []

    def test_every_tile_bills_the_chip_ledger(self):
        chip = Chip()
        for tile in chip.tiles:
            assert tile.ledger is chip.ledger
            tile.edram_read(10)
        assert chip.ledger.count("edram", "read_bit") == 40

    def test_tile_count_follows_the_config(self):
        chip = Chip(ChipConfig(n_tiles=2))
        assert len(chip.tiles) == 2
        assert chip.sima_capacity_bytes == chip.config.sima_weight_capacity_bytes

    def test_hyperlink_latency_from_bandwidth(self):
        # 512 bits = 64 bytes at 6.4 GB/s.
        assert Chip().hyperlink_transfer(512) == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "weight_bytes, contexts",
        [(0, 1), (1, 1), (1024 * 256, 1), (1024 * 256 + 1, 2)],
    )
    def test_contexts_are_whole_ima_matrices(self, weight_bytes, contexts):
        alloc = Chip().allocate_weights("l", weight_bytes)
        assert alloc.ima_contexts_used == contexts
        assert alloc.tiles_used == 1

    @pytest.mark.parametrize(
        "contexts, tiles",
        [(128, 1), (129, 2), (512, 4)],
    )
    def test_tiles_hold_128_contexts_each(self, contexts, tiles):
        # 4 SIMAs x 32 ReRAM contexts per tile.
        alloc = Chip().allocate_weights("l", contexts * 1024 * 256)
        assert alloc.tiles_used == tiles

    def test_tiles_used_is_capped_at_the_chip(self):
        chip = Chip()
        alloc = chip.allocate_weights("l", 2 * chip.sima_capacity_bytes)
        assert alloc.tiles_used == 4
        assert not alloc.fits_on_chip

    def test_exact_fit_and_overflow_occupancy(self):
        chip = Chip()
        half = chip.sima_capacity_bytes // 2
        assert chip.allocate_weights("a", half).fits_on_chip
        assert chip.allocate_weights("b", half).fits_on_chip
        assert not chip.allocate_weights("c", 1).fits_on_chip
        # The overflowing layer is recorded but occupies nothing.
        assert chip.allocated_bytes == 2 * half
        assert [a.layer_name for a in chip.allocations] == ["a", "b", "c"]

    def test_negative_inputs_rejected(self):
        chip = Chip()
        with pytest.raises(ValueError):
            chip.noc_transfer(-1)
        with pytest.raises(ValueError):
            chip.hyperlink_transfer(-1)
        with pytest.raises(ValueError):
            chip.allocate_weights("x", -5)
