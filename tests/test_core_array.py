"""In-charge computing array: the four-phase VMM semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.analog.variation import VariationModel
from repro.core.array import InChargeArray, input_conversion_transfer_curve
from repro.core.charge import dac_voltage


def _ideal(config=None, seed=0):
    return InChargeArray(config=config, variation=VariationModel.ideal(), seed=seed)


class TestWeightProgramming:
    def test_roundtrip(self, rng):
        array = _ideal()
        weights = rng.integers(0, 256, (128, 32))
        array.program_weights(weights)
        assert np.array_equal(array.stored_weights(), weights)

    def test_stored_weights_is_a_copy(self, rng):
        array = _ideal()
        weights = rng.integers(0, 256, (128, 32))
        array.program_weights(weights)
        array.stored_weights()[:] = 0
        weights[:] = 0
        x = rng.integers(1, 256, 128)
        assert np.all(array.ideal_vmm_voltages(x) > 0)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            _ideal().program_weights(np.zeros((128, 31), dtype=int))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            _ideal().program_weights(np.full((128, 32), 256))

    def test_bit_plane_layout(self):
        array = _ideal()
        weights = np.zeros((128, 32), dtype=int)
        weights[0, 0] = 0b10000001
        array.program_weights(weights)
        bits = array.weight_bits
        assert bits[0, 0] == 1  # LSB in CB-local column 0
        assert bits[0, 7] == 1  # MSB in CB-local column 7
        assert bits[0, 1:7].sum() == 0

    def test_compute_requires_programming(self):
        array = _ideal()
        with pytest.raises(RuntimeError):
            array.vmm_voltages(np.zeros(128, dtype=int))


class TestPhase1InputConversion:
    def test_matches_ideal_dac_formula(self):
        array = _ideal()
        x = np.arange(128) * 2 % 256
        v = array.convert_inputs(x)
        expected = [dac_voltage(int(c), 8, constants.VDD_VOLT) for c in x]
        assert np.allclose(v, expected)

    def test_fig3_example_half_vdd(self):
        # Fig. 3 step 1: a 2-bit input '10' converts to VDD/2; the 8-bit
        # equivalent is code 128.
        array = _ideal()
        x = np.zeros(128, dtype=int)
        x[0] = 128
        assert array.convert_inputs(x)[0] == pytest.approx(constants.VDD_VOLT / 2)

    def test_input_range_checked(self):
        with pytest.raises(ValueError):
            _ideal().convert_inputs(np.full(128, 256))

    def test_input_shape_checked(self):
        with pytest.raises(ValueError):
            _ideal().convert_inputs(np.zeros(127, dtype=int))

    def test_transfer_curve_is_exact_ramp_when_ideal(self):
        array = _ideal()
        codes, volts = input_conversion_transfer_curve(array, row=3)
        assert np.allclose(volts, codes * constants.VDD_VOLT / 256)

    def test_transfer_curve_monotonic_under_mismatch(self):
        array = InChargeArray(variation=VariationModel(
            cap_mismatch_sigma=0.01,
            charge_injection_sigma_volt=0.0,
            enable_ktc_noise=False,
        ), seed=5)
        _, volts = input_conversion_transfer_curve(array, row=0)
        # Binary-ratioed capacitor DACs can have small negative DNL at major
        # transitions; monotonicity should still hold within 1 LSB.
        assert np.all(np.diff(volts) > -constants.LSB_VOLT)


class TestFullVmm:
    def test_ideal_vmm_matches_closed_form(self, rng):
        array = _ideal()
        weights = rng.integers(0, 256, (128, 32))
        x = rng.integers(0, 256, 128)
        array.program_weights(weights)
        measured = array.vmm_voltages(x)
        expected = constants.VDD_VOLT * (x @ weights) / (256 * 128 * 255)
        assert np.allclose(measured, expected)

    def test_full_scale_corner(self):
        array = _ideal()
        array.program_weights(np.full((128, 32), 255))
        v = array.vmm_voltages(np.full(128, 255))
        assert np.allclose(v, array.full_scale_volt)
        assert array.full_scale_volt == pytest.approx(0.9 * 255 / 256)

    def test_zero_inputs_give_zero(self):
        array = _ideal()
        array.program_weights(np.full((128, 32), 255))
        assert np.allclose(array.vmm_voltages(np.zeros(128, dtype=int)), 0.0)

    def test_zero_weights_give_zero(self, rng):
        array = _ideal()
        array.program_weights(np.zeros((128, 32), dtype=int))
        assert np.allclose(array.vmm_voltages(rng.integers(0, 256, 128)), 0.0)

    def test_diagnostics_expose_intermediate_nodes(self, rng):
        array = _ideal()
        array.program_weights(rng.integers(0, 256, (128, 32)))
        diag = array.vmm_diagnostics(rng.integers(0, 256, 128))
        assert diag.input_voltages.shape == (128,)
        assert diag.column_voltages.shape == (256,)
        assert diag.mac_voltages.shape == (32,)

    def test_vmm_counter(self, rng):
        array = _ideal()
        array.program_weights(rng.integers(0, 256, (128, 32)))
        array.vmm_voltages(rng.integers(0, 256, 128))
        array.vmm_voltages(rng.integers(0, 256, 128))
        assert array.vmm_count == 2

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=30, deadline=None)
    def test_uniform_vmm_property(self, x_code, w_code):
        """With uniform inputs/weights the MAC voltage has a closed form."""
        array = _ideal(seed=1)
        array.program_weights(np.full((128, 32), w_code))
        v = array.vmm_voltages(np.full(128, x_code))
        expected = constants.VDD_VOLT * x_code * w_code / (256 * 255)
        assert np.allclose(v, expected, atol=1e-12)


class TestSmallArrayVariant:
    def test_2bit_array_vmm(self, small_array_config, rng):
        """The Fig. 2 didactic geometry computes the same closed form."""
        array = _ideal(config=small_array_config)
        weights = rng.integers(0, 4, (4, 4))
        x = rng.integers(0, 4, 4)
        array.program_weights(weights)
        v = array.vmm_voltages(x)
        expected = constants.VDD_VOLT * (x @ weights) / (4 * 4 * 3)
        assert np.allclose(v, expected)


class TestNoiseBehaviour:
    def test_mismatch_changes_results_reproducibly(self, rng):
        weights = rng.integers(0, 256, (128, 32))
        x = rng.integers(0, 256, 128)
        a = InChargeArray(variation=VariationModel.typical(), seed=11)
        b = InChargeArray(variation=VariationModel.typical(), seed=11)
        c = InChargeArray(variation=VariationModel.typical(), seed=12)
        for arr in (a, b, c):
            arr.program_weights(weights)
        va, vb, vc = a.vmm_voltages(x), b.vmm_voltages(x), c.vmm_voltages(x)
        assert np.array_equal(va, vb)
        assert not np.array_equal(va, vc)

    def test_mac_error_within_paper_band(self, rng):
        array = InChargeArray(variation=VariationModel.typical(), seed=7)
        array.program_weights(np.full((128, 32), 255))
        errors = []
        for code in range(0, 256, 16):
            x = np.full(128, code)
            err = (array.vmm_voltages(x) - array.ideal_vmm_voltages(x))
            errors.append(err / array.full_scale_volt)
        worst = np.abs(np.concatenate(errors)).max()
        assert worst < 0.0068  # paper: < 0.68 % of full scale

    def test_voltages_stay_in_rail_range(self, rng):
        array = InChargeArray(variation=VariationModel.typical(), seed=3)
        array.program_weights(rng.integers(0, 256, (128, 32)))
        v = array.vmm_voltages(rng.integers(0, 256, 128))
        assert np.all(v >= constants.VSS_VOLT)
        assert np.all(v <= constants.VDD_VOLT)


class TestEnergyAccounting:
    def test_energy_scales_with_input_activity(self):
        array = _ideal()
        low = array.energy_pj_per_vmm(np.zeros(128, dtype=int))
        high = array.energy_pj_per_vmm(np.full(128, 255))
        assert high > low

    def test_half_activity_matches_table2(self):
        # Code 127 charges groups 1..7 (127 of 255 weighted units); the
        # Table II 26.5 pJ figure assumes 50 % activity, i.e. ~code 128.
        array = _ideal()
        energy = array.energy_pj_per_vmm(np.full(128, 128))
        cfg = array.config
        fixed = (
            cfg.row_driver_count * cfg.row_driver_energy_fj
            + cfg.tda_count * cfg.tda_energy_fj
        ) * 1e-3
        assert energy - fixed == pytest.approx(26.5, rel=0.01)

    def test_activation_counter_increments(self, rng):
        array = _ideal()
        array.program_weights(rng.integers(0, 256, (128, 32)))
        before = array.activation_count
        array.vmm_voltages(np.full(128, 255))
        assert array.activation_count > before


class TestCellSemantics:
    """What one MCC does, read through the array's diagnostics and energy."""

    def test_stored_one_keeps_the_row_voltage_and_zero_discharges(self):
        array = _ideal()
        weights = np.zeros((128, 32), dtype=int)
        weights[0, 0] = 0b11111111
        weights[0, 1] = 0b00000001
        array.program_weights(weights)
        x = np.zeros(128, dtype=int)
        x[0] = 128
        cols = array.vmm_diagnostics(x).column_voltages
        # Row 0 holds VDD/2; each column shares it over all 128 rows.
        kept = constants.VDD_VOLT / 2 / 128
        assert cols[:9] == pytest.approx(np.full(9, kept), rel=1e-12, abs=0)
        assert np.all(cols[9:] == 0.0)

    @pytest.mark.parametrize("code", [0, 1, 128, 255])
    def test_activations_equal_the_input_code(self, code):
        # Binary-ratioed groups: code c charges exactly c unit capacitors.
        array = _ideal()
        array.program_weights(np.zeros((128, 32), dtype=int))
        array.vmm_voltages(np.full(128, code))
        assert array.activation_count == 128 * code

    def test_each_activation_costs_the_table2_mcc_energy(self):
        array = _ideal()
        x = np.zeros(128, dtype=int)
        idle = array.energy_pj_per_vmm(x)
        x[5] = 1
        assert array.energy_pj_per_vmm(x) - idle == pytest.approx(1.62e-3, rel=1e-9)

    def test_discharged_cells_cost_nothing(self):
        array = _ideal()
        cfg = array.config
        fixed = (
            cfg.row_driver_count * cfg.row_driver_energy_fj
            + cfg.tda_count * cfg.tda_energy_fj
        ) * 1e-3
        assert array.energy_pj_per_vmm(np.zeros(128, dtype=int)) == pytest.approx(
            fixed, rel=1e-12
        )
