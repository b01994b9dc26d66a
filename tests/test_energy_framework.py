"""Energy framework: units, actions, components, ledger."""

import pytest

from repro.energy import (
    Action,
    Component,
    ComponentLibrary,
    EnergyLedger,
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


class TestAction:
    def test_valid_action(self):
        act = Action("vmm", energy_pj=4235.0, latency_ns=15.0)
        assert act.energy_pj == 4235.0

    def test_scaled(self):
        act = Action("vmm", 100.0, 10.0).scaled(energy_factor=0.5, latency_factor=2.0)
        assert act.energy_pj == 50.0
        assert act.latency_ns == 20.0

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            Action("bad", energy_pj=-1.0)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Action("", energy_pj=1.0)


class TestComponent:
    def test_action_lookup_and_energy(self):
        comp = Component("ima").add_action(Action("vmm", 10.0))
        assert comp.energy_pj("vmm", invocations=3) == pytest.approx(30.0)

    def test_unknown_action_raises_with_suggestions(self):
        comp = Component("ima").add_action(Action("vmm", 10.0))
        with pytest.raises(KeyError, match="vmm"):
            comp.action("wmm")

    def test_duplicate_action_rejected(self):
        comp = Component("ima").add_action(Action("vmm", 10.0))
        with pytest.raises(ValueError):
            comp.add_action(Action("vmm", 20.0))

    def test_total_area_counts_instances(self):
        comp = Component("sfu", area_um2=1398.0, count=128)
        assert comp.total_area_um2 == pytest.approx(128 * 1398.0)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            Component("x", count=0)


class TestLibrary:
    def _library(self):
        return ComponentLibrary(
            [
                Component("ima", area_um2=100.0).add_action(Action("vmm", 10.0)),
                Component("sfu", area_um2=5.0, count=2).add_action(Action("op", 0.5)),
            ]
        )

    def test_lookup_and_contains(self):
        lib = self._library()
        assert "ima" in lib
        assert lib.get("sfu").count == 2

    def test_duplicate_rejected(self):
        lib = self._library()
        with pytest.raises(ValueError):
            lib.add(Component("ima"))

    def test_total_area(self):
        assert self._library().total_area_um2 == pytest.approx(110.0)

    def test_unknown_component_raises(self):
        with pytest.raises(KeyError):
            self._library().get("nope")


class TestLedger:
    def _ledger(self):
        lib = ComponentLibrary(
            [
                Component("ima").add_action(Action("vmm", 10.0, latency_ns=15.0)),
                Component("sfu").add_action(Action("op", 0.5)),
            ]
        )
        return EnergyLedger(lib)

    def test_record_and_total(self):
        ledger = self._ledger()
        ledger.record("ima", "vmm", 4)
        ledger.record("sfu", "op", 10)
        assert ledger.total_energy_pj == pytest.approx(45.0)

    def test_counts_accumulate(self):
        ledger = self._ledger()
        ledger.record("ima", "vmm", 1)
        ledger.record("ima", "vmm", 2)
        assert ledger.count("ima", "vmm") == 3

    def test_unknown_action_fails_at_record_site(self):
        ledger = self._ledger()
        with pytest.raises(KeyError):
            ledger.record("ima", "typo", 1)

    def test_merge(self):
        a, b = self._ledger(), self._ledger()
        a.record("ima", "vmm", 1)
        b.record("ima", "vmm", 2)
        a.merge(b)
        assert a.count("ima", "vmm") == 3

    def test_entries_sorted_by_energy(self):
        ledger = self._ledger()
        ledger.record("sfu", "op", 1)
        ledger.record("ima", "vmm", 5)
        entries = ledger.entries()
        assert entries[0].component == "ima"

    def test_energy_by_component(self):
        ledger = self._ledger()
        ledger.record("ima", "vmm", 2)
        ledger.record("sfu", "op", 4)
        grouped = ledger.energy_by_component_pj()
        assert grouped["ima"] == pytest.approx(20.0)
        assert grouped["sfu"] == pytest.approx(2.0)

    def test_breakdown_renders_total(self):
        ledger = self._ledger()
        ledger.record("ima", "vmm", 1)
        assert "TOTAL" in ledger.breakdown()

    def test_reset(self):
        ledger = self._ledger()
        ledger.record("ima", "vmm", 1)
        ledger.reset()
        assert ledger.total_energy_pj == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            self._ledger().record("ima", "vmm", -1)
