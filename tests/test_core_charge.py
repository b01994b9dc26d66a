"""Charge-sharing primitives: conservation, grouping, DAC math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.charge import (
    binary_group_sizes,
    charge_share,
    dac_voltage,
    group_index_map,
    shared_charge,
)


class TestChargeShare:
    def test_equal_caps_give_plain_mean(self):
        v = np.array([0.0, 0.9])
        assert charge_share(v, np.full(2, 2e-15)) == pytest.approx(0.45)

    def test_weighting_by_capacitance(self):
        v = np.array([0.0, 0.9])
        caps = np.array([1e-15, 3e-15])
        assert charge_share(v, caps) == pytest.approx(0.675)

    def test_axis_selection(self):
        v = np.array([[0.0, 0.9], [0.9, 0.9]])
        out = charge_share(v, np.full((2, 2), 1e-15), axis=1)
        assert out == pytest.approx([0.45, 0.9])

    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError):
            charge_share(np.ones(2), np.array([1e-15, 0.0]))

    @given(
        hnp.arrays(np.float64, st.integers(2, 32),
                   elements=st.floats(0.0, 0.9)),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_charge_is_conserved(self, voltages, seed):
        """Total charge before equals total charge after the share."""
        rng = np.random.default_rng(seed)
        caps = rng.uniform(1e-15, 4e-15, size=voltages.shape)
        before = shared_charge(voltages, caps)
        v_after = charge_share(voltages, caps)
        after = float(caps.sum()) * v_after
        # Relative, with no absolute floor at the 1e-14 C scale of the
        # charges.  Only a product below the smallest normal float (a
        # subnormal voltage draw) may differ by its rounding, so the
        # absolute tolerance is that float.
        assert after == pytest.approx(before, rel=1e-9, abs=np.finfo(float).tiny)

    @given(
        hnp.arrays(np.float64, st.integers(2, 32),
                   elements=st.floats(0.0, 0.9)),
    )
    @settings(max_examples=60, deadline=None)
    def test_result_within_input_range(self, voltages):
        """The shared voltage is a convex combination of the inputs."""
        caps = np.full(voltages.shape, 2e-15)
        v = charge_share(voltages, caps)
        assert voltages.min() - 1e-12 <= v <= voltages.max() + 1e-12


class TestGrouping:
    def test_group_index_map(self):
        idx = group_index_map((1, 1, 2))
        assert list(idx) == [0, 1, 2, 2]

    def test_paper_grouping_covers_256(self):
        idx = group_index_map(binary_group_sizes(8))
        assert len(idx) == 256
        assert idx[0] == 0 and idx[-1] == 8

    def test_binary_group_sizes(self):
        assert binary_group_sizes(2) == (1, 1, 2)
        assert binary_group_sizes(8) == (1, 1, 2, 4, 8, 16, 32, 64, 128)

    def test_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            group_index_map((1, 0, 2))
        with pytest.raises(ValueError):
            binary_group_sizes(0)


class TestDacVoltage:
    def test_paper_example(self):
        # Fig. 3 step 1: X0 = '10' converts to VDD/2.
        assert dac_voltage(0b10, 2, 0.9) == pytest.approx(0.45)

    def test_full_scale(self):
        assert dac_voltage(255, 8, 0.9) == pytest.approx(0.9 * 255 / 256)

    @given(st.integers(1, 10), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_monotonic_in_code(self, bits, raw):
        code = raw % ((1 << bits) - 1)
        assert dac_voltage(code + 1, bits, 0.9) > dac_voltage(code, bits, 0.9)

    def test_rejects_out_of_range_code(self):
        with pytest.raises(ValueError):
            dac_voltage(4, 2, 0.9)
