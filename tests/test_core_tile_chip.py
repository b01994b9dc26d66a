"""Tile and chip: hybrid memory, crossbar, SFU, allocator, component library."""

import numpy as np
import pytest

from repro.core.chip import Chip
from repro.core.components import build_component_library
from repro.core.config import ChipConfig
from repro.core.tile import IMAKind, Tile


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


class TestTile:
    def test_structure(self):
        tile = Tile(seed=0)
        assert len(tile.dimas) == 4
        assert len(tile.simas) == 4
        assert all(u.kind is IMAKind.DYNAMIC for u in tile.dimas)
        assert all(u.kind is IMAKind.STATIC for u in tile.simas)

    def test_context_depths(self):
        tile = Tile(seed=0)
        assert tile.dimas[0].contexts == 8
        assert tile.simas[0].contexts == 32

    def test_weight_write_billing(self, rng):
        tile = Tile(seed=0)
        weights = rng.integers(0, 256, (1024, 256))
        tile.simas[0].write_weights(weights)
        tile.dimas[0].write_weights(weights)
        bits = weights.size * 8
        assert tile.ledger.count("sima", "write_weight_bit") == bits
        assert tile.ledger.count("dima", "write_weight_bit") == bits
        by_component = tile.ledger.energy_by_component_pj()
        assert by_component["sima"] > 1000 * by_component["dima"]

    def test_vmm_billing_and_compute(self, rng):
        tile = Tile(seed=0)
        unit = tile.dimas[0]
        unit.write_weights(rng.integers(0, 256, (1024, 256)))
        x = rng.integers(0, 256, (3, 1024))
        codes = unit.vmm_batch(x)
        assert codes.shape == (3, 256)
        assert tile.ledger.count("ima", "vmm") == 3

    def test_crossbar_transfer(self):
        tile = Tile(seed=0)
        latency = tile.crossbar_transfer(1024)
        assert latency > 0
        assert tile.ledger.count("crossbar", "bit") == 1024

    def test_sfu_exp_and_billing(self):
        tile = Tile(seed=0)
        x = np.array([0.0, 1.0, -1.0])
        out = tile.sfu.exp(x)
        assert np.allclose(out, np.exp(x))
        assert tile.sfu.op_count == 3
        assert tile.sfu.latency_ns(256) == pytest.approx(2 * 0.1)

    def test_edram_traffic(self):
        tile = Tile(seed=0)
        tile.edram_read(2048)
        tile.edram_write(1024)
        assert tile.ledger.count("edram", "read_bit") == 2048
        assert tile.ledger.count("edram", "write_bit") == 1024

    def test_quantize_billing(self):
        tile = Tile(seed=0)
        tile.quantize_outputs(256)
        assert tile.ledger.count("quant", "op") == 256


class TestChip:
    def test_structure(self):
        chip = Chip(seed=0)
        assert len(chip.tiles) == 4

    def test_noc_and_hyperlink(self):
        chip = Chip(seed=0)
        noc_lat = chip.noc_transfer(512, hops=2)
        ht_lat = chip.hyperlink_transfer(512)
        assert noc_lat == pytest.approx(4.0)
        assert ht_lat > 0
        assert chip.ledger.count("noc", "bit_hop") == 1024
        assert chip.ledger.count("hyperlink", "bit") == 512

    def test_allocator_tracks_occupancy(self):
        chip = Chip(seed=0)
        alloc = chip.allocate_weights("layer1", 10 * 1024 * 1024)
        assert alloc.fits_on_chip
        assert chip.allocated_bytes == 10 * 1024 * 1024

    def test_allocator_flags_overflow(self):
        chip = Chip(seed=0)
        big = chip.sima_capacity_bytes + 1
        alloc = chip.allocate_weights("huge", big)
        assert not alloc.fits_on_chip

    def test_reset_allocations(self):
        chip = Chip(seed=0)
        chip.allocate_weights("l", 1024)
        chip.reset_allocations()
        assert chip.allocated_bytes == 0
        assert chip.allocations == []

    def test_negative_inputs_rejected(self):
        chip = Chip(seed=0)
        with pytest.raises(ValueError):
            chip.noc_transfer(-1)
        with pytest.raises(ValueError):
            chip.hyperlink_transfer(-1)
        with pytest.raises(ValueError):
            chip.allocate_weights("x", -5)
