"""Variation model: sampling statistics, corners, ideal switch-off."""

import numpy as np
import pytest

from repro import constants
from repro.analog.variation import Corner, Normals, VariationModel, make_rng


def _ktc_noise(model, total, rng):
    """The kT/C noise of one bank of shares, drawn from ``rng``."""
    normals = Normals.draw([rng], model.ktc_draws(total.size))
    return model.ktc_noise_from(total, normals)[0]


def _charge_injection(model, n, rng):
    """The offsets of one bank of n switching events, drawn from ``rng``."""
    normals = Normals.draw([rng], model.injection_draws(n))
    return model.charge_injection_from(n, normals)[0]


class TestIdealModel:
    def test_all_mechanisms_off(self, rng):
        model = VariationModel.ideal()
        caps = model.sample_unit_capacitors((16, 16), rng)
        assert np.all(caps == constants.CU_FARAD)
        assert np.all(_charge_injection(model, 8, rng) == 0.0)
        assert np.all(_ktc_noise(model, np.full(5, 1e-13), rng) == 0.0)
        assert np.all(model.sample_vtc_offsets(4, rng) == 0.0)
        assert np.all(model.vtc_jitter((4,), rng) == 0.0)

    def test_ideal_vtc_gains_are_nominal(self, rng):
        model = VariationModel.ideal()
        gains = model.sample_vtc_gains(10, 1e-10, rng)
        assert np.allclose(gains, 1e-10, rtol=1e-12, atol=0.0)


class TestSampling:
    def test_capacitor_mismatch_statistics(self, rng):
        model = VariationModel(cap_mismatch_sigma=0.01)
        caps = model.sample_unit_capacitors((400, 400), rng)
        relative = caps / constants.CU_FARAD - 1.0
        assert abs(relative.mean()) < 1e-3
        assert relative.std() == pytest.approx(0.01, rel=0.05)

    def test_capacitors_never_nonpositive(self, rng):
        model = VariationModel(cap_mismatch_sigma=0.5)  # absurdly wide
        caps = model.sample_unit_capacitors((64, 64), rng)
        assert np.all(caps > 0.0)

    def test_ktc_scales_with_capacitance(self, rng):
        model = VariationModel.typical()
        small = _ktc_noise(model, np.full(4000, 2e-15), rng).std()
        large = _ktc_noise(model, np.full(4000, 512e-15), rng).std()
        assert small > large

    def test_charge_injection_sigma(self, rng):
        model = VariationModel(charge_injection_sigma_volt=1e-3)
        noise = _charge_injection(model, 5000, rng)
        assert noise.std() == pytest.approx(1e-3, rel=0.1)


class TestCorners:
    def test_tt_is_nominal(self):
        assert Corner.TT.capacitance_scale == 1.0
        assert Corner.TT.vtc_gain_scale == 1.0

    def test_ff_ss_shift_capacitance_oppositely(self):
        assert Corner.FF.capacitance_scale < 1.0 < Corner.SS.capacitance_scale

    def test_corner_shifts_sampled_capacitors(self, rng):
        ss = VariationModel(cap_mismatch_sigma=0.0, corner=Corner.SS)
        caps = ss.sample_unit_capacitors((4,), rng)
        assert np.all(caps > constants.CU_FARAD)

    def test_temperature_shifts_vtc_gain(self, rng):
        hot = VariationModel(vtc_gain_sigma=0.0, temperature_c=85.0)
        cold = VariationModel(vtc_gain_sigma=0.0, temperature_c=25.0)
        hot_gain = hot.sample_vtc_gains(1, 1e-10, rng)[0]
        cold_gain = cold.sample_vtc_gains(1, 1e-10, rng)[0]
        assert hot_gain > cold_gain


class TestValidation:
    def test_rejects_negative_mismatch(self):
        with pytest.raises(ValueError):
            VariationModel(cap_mismatch_sigma=-0.1)

    def test_rejects_negative_injection(self):
        with pytest.raises(ValueError):
            VariationModel(charge_injection_sigma_volt=-1.0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            VariationModel(vtc_jitter_sigma_s=-1.0)

    def test_rejects_negative_comparator_offset(self):
        with pytest.raises(ValueError, match="comparator_offset_sigma_volt"):
            VariationModel(comparator_offset_sigma_volt=-1e-3)

    def test_make_rng_reproducible(self):
        assert make_rng(5).integers(0, 100) == make_rng(5).integers(0, 100)
