"""Energy, time and area unit helpers."""

import pytest

from repro.energy import (
    fj_to_pj,
    pj_to_j,
    tops,
    tops_per_watt,
    um2_to_mm2,
    watts,
)


class TestUnits:
    def test_fj_to_pj(self):
        assert fj_to_pj(1000.0) == pytest.approx(1.0)

    def test_pj_to_j(self):
        assert pj_to_j(1.0) == pytest.approx(1e-12, rel=1e-12, abs=0)

    def test_um2_to_mm2(self):
        assert um2_to_mm2(1e6) == pytest.approx(1.0)

    def test_tops(self):
        assert tops(1e12, 1.0) == pytest.approx(1.0)

    def test_tops_per_watt_headline(self):
        # The paper's headline: 2*1024*256 ops at 4.235 nJ -> 123.8 TOPS/W.
        assert tops_per_watt(2 * 1024 * 256, 4.235e-9) == pytest.approx(123.8, rel=1e-3)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            tops(1.0, 0.0)

    @pytest.mark.parametrize("joules", [0.0, -1e-9])
    def test_tops_per_watt_rejects_non_positive_energy(self, joules):
        # A clear ValueError, never a bare ZeroDivisionError.
        with pytest.raises(ValueError, match="positive energy"):
            tops_per_watt(1e12, joules)

    def test_watts(self):
        assert watts(2.0, 4.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("seconds", [0.0, -1.0])
    def test_watts_rejects_non_positive_duration(self, seconds):
        with pytest.raises(ValueError, match="positive duration"):
            watts(1.0, seconds)
