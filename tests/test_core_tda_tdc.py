"""Time-domain accumulation and TDC readout."""

import numpy as np
import pytest

from repro import constants
from repro.analog.variation import VariationModel
from repro.core.charge import dac_voltage
from repro.core.tda import TimeDomainAccumulator
from repro.core.tdc import TimeToDigitalConverter


def _ideal_tda(n_chains=4, n_stages=8):
    return TimeDomainAccumulator(
        n_chains=n_chains, n_stages=n_stages,
        variation=VariationModel.ideal(), seed=0,
    )


class TestTimeDomainAccumulator:
    def test_ideal_accumulation_is_linear_sum(self):
        tda = _ideal_tda()
        v = np.full((4, 8), 0.45)
        delta = tda.accumulate(v)
        assert np.allclose(delta, tda.ideal_delta_s(v), rtol=1e-9, atol=0.0)

    def test_reference_cancels_base_delay(self):
        tda = _ideal_tda()
        zero = np.zeros((4, 8))
        residual = tda.accumulate(zero) / tda.full_scale_delta_s
        assert np.allclose(residual, 0.0, rtol=0.0, atol=1e-12)

    def test_full_scale_delta(self):
        tda = _ideal_tda()
        assert tda.full_scale_delta_s == pytest.approx(8 * 113e-12, rel=1e-6, abs=0.0)

    def test_additivity_across_stages(self):
        tda = _ideal_tda(n_chains=1, n_stages=8)
        a = np.zeros((1, 8)); a[0, 0] = 0.9
        b = np.zeros((1, 8)); b[0, 3] = 0.9
        ab = a + b
        assert tda.accumulate(ab)[0] == pytest.approx(
            tda.accumulate(a)[0] + tda.accumulate(b)[0], rel=1e-9, abs=0.0
        )

    def test_relative_error_within_paper_band(self):
        tda = TimeDomainAccumulator(n_chains=256, n_stages=8, seed=5)
        v = np.random.default_rng(6).uniform(0, constants.VDD_VOLT, (256, 8))
        rel = tda.relative_error(v)
        assert np.abs(rel).max() < 0.00125  # paper: < 0.11 %

    def test_conversion_counter(self):
        tda = _ideal_tda(n_chains=4, n_stages=8)
        tda.accumulate(np.zeros((4, 8)))
        assert tda.conversion_count == 4 * 8 + 8  # signal + reference

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            _ideal_tda().accumulate(np.zeros((3, 8)))

    def test_rail_range_checked(self):
        with pytest.raises(ValueError):
            _ideal_tda().accumulate(np.full((4, 8), 1.2))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TimeDomainAccumulator(n_chains=0, n_stages=8)


class TestTimeToDigitalConverter:
    def test_quantize_dequantize_roundtrip(self):
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=1e-9)
        times = np.linspace(0, 0.99e-9, 50)
        codes = tdc.quantize(times)
        restored = tdc.dequantize(codes)
        assert np.all(np.abs(restored - times) <= tdc.lsb_s / 2 + 1e-15)

    def test_clipping_at_full_scale(self):
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=1e-9)
        assert tdc.quantize(np.array([5e-9]))[0] == 255

    def test_zero_maps_to_zero(self):
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=1e-9)
        assert tdc.quantize(np.array([0.0]))[0] == 0

    def test_lsb(self):
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=256e-12)
        assert tdc.lsb_s == pytest.approx(1e-12, rel=1e-12, abs=0)

    def test_monotonic(self):
        tdc = TimeToDigitalConverter(bits=6, full_scale_s=1e-9)
        times = np.linspace(0, 1e-9, 200)
        codes = tdc.quantize(times)
        assert np.all(np.diff(codes) >= 0)

    def test_conversion_counter(self):
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=1e-9)
        tdc.quantize(np.zeros(10))
        assert tdc.conversion_count == 10

    def test_rejects_negative_delay(self):
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=1e-9)
        with pytest.raises(ValueError):
            tdc.quantize(np.array([-1e-12]))

    def test_rejects_out_of_range_codes(self):
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=1e-9)
        with pytest.raises(ValueError):
            tdc.dequantize(np.array([256]))

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            TimeToDigitalConverter(bits=0, full_scale_s=1e-9)

    def test_rejects_resolution_above_16_bits(self):
        with pytest.raises(ValueError):
            TimeToDigitalConverter(bits=17, full_scale_s=1e-9)

    @pytest.mark.parametrize("full_scale_s", [0.0, -1e-9])
    def test_rejects_nonpositive_full_scale(self, full_scale_s):
        with pytest.raises(ValueError, match="full_scale_s"):
            TimeToDigitalConverter(bits=8, full_scale_s=full_scale_s)

    @pytest.mark.parametrize("bits", [1, 4, 8])
    def test_codes_span_full_range(self, bits):
        tdc = TimeToDigitalConverter(bits=bits, full_scale_s=1e-9)
        codes = tdc.quantize(np.linspace(0.0, 1e-9, 4 << bits))
        assert np.array_equal(np.unique(codes), np.arange(tdc.max_code + 1))

    def test_rounds_to_nearest_code(self):
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=256e-12)
        codes = tdc.quantize(np.array([41.4e-12, 41.6e-12]))
        assert codes.tolist() == [41, 42]


class TestConversionChain:
    """Input code -> eDAC voltage -> VTC delay -> TDC code, all ideal."""

    def test_single_stage_roundtrip_recovers_every_code(self):
        tda = _ideal_tda(n_chains=256, n_stages=1)
        codes = np.arange(256)
        volts = np.array([dac_voltage(int(c), 8, constants.VDD_VOLT) for c in codes])
        delays = np.maximum(tda.accumulate(volts[:, None]), 0.0)
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=tda.full_scale_delta_s)
        assert np.array_equal(tdc.quantize(delays), codes)

    def test_chain_reads_the_mean_code_of_its_stages(self):
        tda = _ideal_tda(n_chains=1, n_stages=8)
        codes = np.array([0, 16, 32, 48, 64, 80, 96, 112])
        volts = np.array([[dac_voltage(int(c), 8, constants.VDD_VOLT) for c in codes]])
        tdc = TimeToDigitalConverter(bits=8, full_scale_s=tda.full_scale_delta_s)
        assert tdc.quantize(np.maximum(tda.accumulate(volts), 0.0))[0] == codes.mean()
