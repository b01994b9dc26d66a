"""Analytic ADC / DAC conversion energies."""

import pytest

from repro import baselines
from repro.analog.converters import dac_energy_pj, sar_adc_energy_pj
from repro.baselines import isaac, raella


class TestCostFormulas:
    def test_sar_energy_walden_scaling(self):
        assert sar_adc_energy_pj(10) == pytest.approx(4 * sar_adc_energy_pj(8))

    def test_rate_penalty(self):
        assert sar_adc_energy_pj(8, 5.12e9) > sar_adc_energy_pj(8, 1.28e9)

    def test_dac_anchor(self):
        assert dac_energy_pj(8) == pytest.approx(0.5)


class TestSarAdcEnergy:
    def test_energy_anchor(self):
        # ISAAC's 8-bit 1.28 GS/s converter.
        assert sar_adc_energy_pj(8) == 2.0

    @pytest.mark.parametrize("bits", [1, 7, 13])
    def test_energy_doubles_per_bit(self, bits):
        assert sar_adc_energy_pj(bits + 1) == 2 * sar_adc_energy_pj(bits)

    def test_rate_penalty_is_square_root(self):
        assert sar_adc_energy_pj(8, 4 * 1.28e9) == pytest.approx(
            2 * sar_adc_energy_pj(8), rel=1e-12
        )

    def test_slower_rates_pay_the_anchor(self):
        assert sar_adc_energy_pj(8, 0.32e9) == sar_adc_energy_pj(8)


class TestDacEnergy:
    def test_energy_scales_with_bits(self):
        energies = [dac_energy_pj(bits) for bits in range(1, 15)]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_one_bit_is_a_2_fj_line_driver(self):
        assert dac_energy_pj(1) == pytest.approx(2e-3, rel=0.02)

    @pytest.mark.parametrize("bits", [1, 7, 13])
    def test_energy_tracks_unit_capacitor_count(self, bits):
        # 2^(b+1) - 1 units = twice the b-bit array plus one unit.
        assert dac_energy_pj(bits + 1) == pytest.approx(
            2 * dac_energy_pj(bits) + dac_energy_pj(1), rel=1e-12
        )


class TestValidation:
    @pytest.mark.parametrize("formula", [sar_adc_energy_pj, dac_energy_pj])
    @pytest.mark.parametrize("bits", [-1, 0, 15])
    def test_out_of_range_bits_rejected(self, formula, bits):
        with pytest.raises(ValueError, match="bits"):
            formula(bits)

    @pytest.mark.parametrize("formula", [sar_adc_energy_pj, dac_energy_pj])
    def test_range_edges_accepted(self, formula):
        assert 0 < formula(1) < formula(14)


class TestBaselinePricing:
    def test_baselines_reexport_the_formulas(self):
        assert baselines.sar_adc_energy_pj is sar_adc_energy_pj
        assert baselines.dac_energy_pj is dac_energy_pj

    def test_isaac_readout(self):
        assert isaac.ADC_PJ_PER_CONVERSION == pytest.approx(1.85)
        assert isaac.DRIVER_PJ_PER_ROW_CYCLE == dac_energy_pj(1)

    def test_raella_adc_pair(self):
        assert raella.LOW_RES_ADC_PJ == pytest.approx(0.125)
        assert raella.HIGH_RES_ADC_PJ == 2.0
