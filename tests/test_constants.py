"""Physical-constant sanity and the paper's derived anchors."""

import math

import pytest

from repro import constants
from repro.arch.accelerator import yoco_spec
from repro.baselines import isaac_spec, raella_spec, timely_spec
from repro.core.config import ArrayConfig
from repro.experiments.extensions import endurance_analysis


class TestResolutionAnchors:
    def test_lsb_matches_paper(self):
        # The paper quotes a 3.52 mV LSB; VDD/256 with VDD = 0.9 V.
        assert constants.LSB_VOLT == pytest.approx(3.52e-3, rel=2e-3)

    def test_row_groups_cover_all_columns(self):
        assert sum(constants.ROW_GROUP_SIZES) == constants.ARRAY_COLS

    def test_row_groups_are_binary_ratioed(self):
        assert constants.ROW_GROUP_SIZES[0] == 1
        for bit, size in enumerate(constants.ROW_GROUP_SIZES[1:]):
            assert size == 1 << bit

    def test_cb_share_counts_sum(self):
        # 1 + 2 + ... + 128 = 255 participating capacitors per CB.
        assert sum(constants.CB_SHARE_COUNTS) == 255

    def test_ima_vmm_dimensions(self):
        assert constants.IMA_INPUT_DIM == 1024
        assert constants.IMA_OUTPUT_DIM == 256
        assert constants.IMA_OPS_PER_VMM == 2 * 1024 * 256


class TestKtcNoise:
    def test_magnitude_at_row_capacitance(self):
        # 512 fF of row capacitance -> ~90 uV of kT/C noise at 300 K.
        sigma = constants.ktc_noise_sigma_volt(512e-15)
        assert 50e-6 < sigma < 150e-6

    def test_decreases_with_capacitance(self):
        small = constants.ktc_noise_sigma_volt(2e-15)
        large = constants.ktc_noise_sigma_volt(512e-15)
        assert small > large
        assert small / large == pytest.approx(math.sqrt(512 / 2))

    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError):
            constants.ktc_noise_sigma_volt(0.0)


class TestMemoryAndComputeCell:
    def test_activation_energy_matches_the_array_config(self):
        # Table II: 1.62 fJ per MCC activation.
        assert ArrayConfig().mcc_energy_fj == pytest.approx(
            constants.MCC_ENERGY_PER_ACT_J * 1e15, rel=1e-12
        )

    def test_area_is_the_capacitor_footprint(self):
        assert ArrayConfig().mcc_area_um2 == constants.MCC_AREA_UM2

    def test_sram_cluster_fits_under_the_capacitor(self):
        # The MOM capacitor stacks over the 8-bit SRAM cluster (Table II).
        cluster = constants.SRAM_BITS_PER_CLUSTER * constants.RAM_CELL_AREA_UM2
        assert cluster <= constants.MCC_AREA_UM2

    def test_reram_cluster_holds_four_times_the_contexts(self):
        assert constants.RERAM_BITS_PER_CLUSTER == 4 * constants.SRAM_BITS_PER_CLUSTER


class TestWeightWriteEnergies:
    def test_reram_write_costs_three_orders_more(self):
        ratio = constants.RERAM_WRITE_PJ_PER_BIT / constants.SRAM_WRITE_PJ_PER_BIT
        assert 1000 < ratio < 10000

    def test_yoco_writes_dynamic_operands_to_sram(self):
        assert yoco_spec().dynamic_write_pj_per_bit == constants.SRAM_WRITE_PJ_PER_BIT

    @pytest.mark.parametrize("spec", [isaac_spec, timely_spec, raella_spec])
    def test_reram_baselines_write_dynamic_operands_to_reram(self, spec):
        assert spec().dynamic_write_pj_per_bit == constants.RERAM_WRITE_PJ_PER_BIT

    def test_endurance_analysis_prices_the_same_gap(self):
        result = endurance_analysis("qdqbert")
        assert result.energy_ratio == pytest.approx(
            constants.RERAM_WRITE_PJ_PER_BIT / constants.SRAM_WRITE_PJ_PER_BIT, rel=1e-12
        )
