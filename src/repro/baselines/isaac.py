"""ISAAC baseline model (Shafiee et al., ISCA 2016).

The canonical ReRAM crossbar accelerator and the design whose ADC economics
motivate this whole line of work:

* 128x128 crossbars with 2-bit ReRAM cells — an 8-bit weight spans 4
  columns (weight slicing), so one crossbar holds 32 8-bit weight columns;
* 8-bit inputs stream bit-serially over 8 cycles through 1-bit wordline
  drivers (input slicing);
* one 8-bit 1.28 GS/s SAR ADC per crossbar, time-multiplexed over all 128
  bitlines each input cycle: 128 x 8 = 1024 conversions per crossbar VMM —
  converts/MAC = (8 x 4) / 128 = 0.25, and at 2 pJ/conversion the ADC is
  ~85 % of compute energy, the figure the paper quotes;
* shift-and-add in digital merges the bit slices (amplifying quantization
  error — ISAAC's "high accuracy loss" column in Table I);
* eDRAM + concentrated-mesh NoC + HyperTransport off-chip links.

For the Fig. 8 comparison the paper re-models every baseline at 28 nm on an
area-normalized die; we do the same (unit area ~1 900 um2 incl. the shared
ADC, ~45 mm2 of compute on the 111 mm2-class die -> ~24 000 crossbar units).
ReRAM-only storage means attention's dynamic matrices must be SET/RESET-
programmed mid-inference — the weakness the hybrid design removes.
"""

from __future__ import annotations

from repro import constants
from repro.arch.accelerator import AcceleratorSpec
from repro.baselines.base import dac_energy_pj, sar_adc_energy_pj

#: Crossbar geometry.
ARRAY_ROWS = 128
ARRAY_COLS = 128
CELL_BITS = 2
WEIGHT_BITS = 8
INPUT_BITS = 8

#: Columns per 8-bit weight and resulting outputs per crossbar.
WEIGHT_SLICES = WEIGHT_BITS // CELL_BITS  # 4
OUTPUTS_PER_ARRAY = ARRAY_COLS // WEIGHT_SLICES  # 32

#: Conversions per crossbar VMM: every bitline, every input cycle.
CONVERSIONS_PER_VMM = ARRAY_COLS * INPUT_BITS  # 1024

#: Per-event energies.  The 28 nm re-model shaves the 32 nm-era SAR ADC to
#: 1.85 pJ/conversion (the shared-component normalization of Section IV-A).
ADC_PJ_PER_CONVERSION = sar_adc_energy_pj(bits=8) * 0.925  # 1.85 pJ
DRIVER_PJ_PER_ROW_CYCLE = dac_energy_pj(bits=1)  # 1-bit wordline driver
ARRAY_PJ_PER_COLUMN_CYCLE = 0.06  # bitline current integration
SHIFT_ADD_PJ_PER_COLUMN_CYCLE = 0.02  # digital slice merging


def unit_vmm_energy_pj() -> float:
    """All-in energy of one 128x32 8-bit crossbar VMM."""
    adc = CONVERSIONS_PER_VMM * ADC_PJ_PER_CONVERSION
    drivers = ARRAY_ROWS * INPUT_BITS * DRIVER_PJ_PER_ROW_CYCLE
    array = ARRAY_COLS * INPUT_BITS * ARRAY_PJ_PER_COLUMN_CYCLE
    digital = ARRAY_COLS * INPUT_BITS * SHIFT_ADD_PJ_PER_COLUMN_CYCLE
    return adc + drivers + array + digital


def unit_vmm_latency_ns() -> float:
    """The shared 1.28 GS/s ADC paces the crossbar: 1024 conversions."""
    return CONVERSIONS_PER_VMM / 1.28e9 * 1e9  # 800 ns


def isaac_spec() -> AcceleratorSpec:
    """ISAAC re-modeled at 28 nm on an area-normalized die."""
    return AcceleratorSpec(
        name="isaac",
        unit_input_dim=ARRAY_ROWS,
        unit_output_dim=OUTPUTS_PER_ARRAY,
        unit_vmm_energy_pj=unit_vmm_energy_pj(),
        unit_vmm_latency_ns=unit_vmm_latency_ns(),
        n_units=55_000,
        power_gating=False,  # the shared ADC sweeps all bitlines regardless
        dynamic_write_pj_per_bit=constants.RERAM_WRITE_PJ_PER_BIT,
        dynamic_write_ns_per_row=50.0,
        # 55k crossbars x 128x128 x 2 b = 225 MB of 8-bit weights (the
        # crossbars *are* the storage, so capacity scales with units).
        weight_capacity_bytes=55_000 * ARRAY_ROWS * ARRAY_COLS * CELL_BITS // 8,
        edram_pj_per_bit=0.1,
        noc_pj_per_bit=0.08,
        offchip_pj_per_bit=1.6,
        offchip_gbps=6.4,
        area_mm2=111.2,
    )
