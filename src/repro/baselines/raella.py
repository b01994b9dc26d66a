"""RAELLA baseline model (Andrulis et al., ISCA 2023).

RAELLA reforms analog-PIM arithmetic for "efficient, low-resolution and
low-loss" operation without retraining:

* *center+offset* weight encoding concentrates analog sums near zero so
  low-resolution ADCs suffice most of the time;
* *speculation* reads columns with a cheap low-res conversion first and
  re-runs the rare saturating columns at high resolution;
* fine slicing (Table I: "Slice Weight: yes, Slice Input: yes, Block Size:
  Mid") keeps accuracy high but leaves many conversions per MAC — cheaper
  conversions, not fewer;
* input bit-serial streaming bounds throughput, so RAELLA's win over ISAAC
  is mostly energy, modestly speed — which is exactly the asymmetry the
  Fig. 8 geomeans show (4.2x EE, 1.6x tput over ISAAC).

Modeled unit: 256x32 effective 8-bit block using ~4-bit speculative ADCs
with a 15 % high-resolution replay rate.  ReRAM-only storage, as published.
"""

from __future__ import annotations

from repro import constants
from repro.arch.accelerator import AcceleratorSpec
from repro.baselines.base import sar_adc_energy_pj

ARRAY_ROWS = 256
OUTPUTS_PER_ARRAY = 32
INPUT_SLICES = 8  # bit-serial 8-bit inputs

#: Speculation: cheap 4-bit first pass, 15 % of columns replay at 8 bits.
LOW_RES_ADC_PJ = sar_adc_energy_pj(bits=4)  # 0.125 pJ
HIGH_RES_ADC_PJ = sar_adc_energy_pj(bits=8)  # 2.0 pJ
REPLAY_RATE = 0.15
CONVERSIONS_PER_VMM = OUTPUTS_PER_ARRAY * 2 * INPUT_SLICES  # 2 slices/weight

DRIVER_PJ_PER_ROW_CYCLE = 0.002  # 1-bit drivers
ARRAY_PJ_PER_COLUMN_CYCLE = 0.80  # 256-row bitlines; 2x ISAAC's row count
DIGITAL_PJ_PER_COLUMN_CYCLE = 0.24  # center correction + slice merge


def unit_vmm_energy_pj() -> float:
    """All-in energy of one 256x32 8-bit block VMM."""
    adc_per_conv = LOW_RES_ADC_PJ + REPLAY_RATE * HIGH_RES_ADC_PJ
    adc = CONVERSIONS_PER_VMM * adc_per_conv
    drivers = ARRAY_ROWS * INPUT_SLICES * DRIVER_PJ_PER_ROW_CYCLE
    array = OUTPUTS_PER_ARRAY * 2 * INPUT_SLICES * ARRAY_PJ_PER_COLUMN_CYCLE
    digital = OUTPUTS_PER_ARRAY * 2 * INPUT_SLICES * DIGITAL_PJ_PER_COLUMN_CYCLE
    return adc + drivers + array + digital


def unit_vmm_latency_ns() -> float:
    """8 input cycles with speculative double-sampling: ~560 ns."""
    return 560.0


def raella_spec() -> AcceleratorSpec:
    """RAELLA re-modeled at 28 nm on an area-normalized die."""
    return AcceleratorSpec(
        name="raella",
        unit_input_dim=ARRAY_ROWS,
        unit_output_dim=OUTPUTS_PER_ARRAY,
        unit_vmm_energy_pj=unit_vmm_energy_pj(),
        unit_vmm_latency_ns=unit_vmm_latency_ns(),
        n_units=32_000,
        power_gating=False,
        dynamic_write_pj_per_bit=constants.RERAM_WRITE_PJ_PER_BIT,
        dynamic_write_ns_per_row=50.0,
        weight_capacity_bytes=32_000 * ARRAY_ROWS * OUTPUTS_PER_ARRAY,
        edram_pj_per_bit=0.1,
        noc_pj_per_bit=0.08,
        offchip_pj_per_bit=1.6,
        offchip_gbps=6.4,
        area_mm2=111.2,
    )
