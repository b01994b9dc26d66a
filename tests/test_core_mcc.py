"""Memory-and-compute cell: the single-cell semantic reference."""

import pytest

from repro import constants
from repro.core.mcc import MemoryComputeCell
from repro.memory.reram import ReramCluster
from repro.memory.sram import SramCluster


class TestStructure:
    def test_default_is_sram_backed(self):
        assert isinstance(MemoryComputeCell().cluster, SramCluster)

    def test_reram_backed_variant(self):
        cell = MemoryComputeCell(cluster=ReramCluster())
        assert isinstance(cell.cluster, ReramCluster)

    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError):
            MemoryComputeCell(capacitance_farad=0.0)

    def test_area_is_cap_dominated(self):
        # The MOM capacitor stacks over the cluster: 0.8 um2 per Table II.
        assert MemoryComputeCell().area_um2 == constants.MCC_AREA_UM2


class TestPhases:
    def test_precharge_sets_voltage_and_charge(self):
        cell = MemoryComputeCell()
        cell.precharge(constants.VDD_VOLT)
        assert cell.voltage == constants.VDD_VOLT
        # Charge is ~1e-15 C, under approx's default 1e-12 absolute
        # tolerance, so compare relatively only.
        assert cell.charge == pytest.approx(
            constants.CU_FARAD * constants.VDD_VOLT, rel=1e-12, abs=0
        )

    def test_precharge_range_checked(self):
        with pytest.raises(ValueError):
            MemoryComputeCell().precharge(1.5)

    def test_multiply_with_weight_one_keeps_charge(self):
        cell = MemoryComputeCell()
        cell.store_weight_bit(1)
        cell.precharge(0.45)
        assert cell.multiply() == pytest.approx(0.45)

    def test_multiply_with_weight_zero_discharges(self):
        cell = MemoryComputeCell()
        cell.store_weight_bit(0)
        cell.precharge(0.45)
        assert cell.multiply() == 0.0

    def test_shared_voltage_can_be_set_externally(self):
        cell = MemoryComputeCell()
        cell.set_shared_voltage(0.3)
        assert cell.voltage == 0.3


class TestEnergyAccounting:
    def test_activation_counts_only_upward_charging(self):
        cell = MemoryComputeCell()
        cell.precharge(0.9)
        cell.precharge(0.0)  # discharge: not an activation
        cell.precharge(0.9)
        assert cell.activation_count == 2

    def test_energy_per_activation(self):
        cell = MemoryComputeCell()
        cell.precharge(0.9)
        assert cell.energy_pj() == pytest.approx(
            constants.MCC_ENERGY_PER_ACT_J * 1e12
        )

    def test_weight_plane_selection(self):
        cell = MemoryComputeCell()
        cell.store_weight_bit(1, plane=3)
        assert cell.weight_bit() == 1
        cell.cluster.select(0)
        assert cell.weight_bit() == 0
