"""TIMELY baseline model (Li et al., ISCA 2020).

TIMELY pushes data movement "local and in time domain": analog local
buffers keep partial results analog inside large ReRAM sub-chip blocks,
time-domain interfaces (TDIs) replace most ADC/DAC crossings, and only
block-edge results are digitized.  Consequences captured here:

* large effective blocks (256 rows x 64 8-bit outputs per unit) — few
  conversions per MAC (Table I: "Block Size: Large, ADC cost: Low");
* charge/time-domain interfaces at ~0.1 pJ-class cost per crossing, an
  order of magnitude under ISAAC's SAR ADC bill;
* the analog chaining serializes block evaluation — per-unit latency is
  long, but energy per MAC is the headline (TIMELY's claim is ~10x+ EE
  over ISAAC at comparable throughput density);
* single-bit-slice inputs through low-cost DACs (X-axis input voltages),
  so accuracy loss stays high (Table I) but input conversion is cheap;
* ReRAM-only: dynamic matrices pay SET/RESET writes, like ISAAC.

Area-normalized at 28 nm: bigger blocks amortize interfaces, ~5 200 units.
"""

from __future__ import annotations

from repro import constants
from repro.arch.accelerator import AcceleratorSpec

#: Block geometry: TIMELY aggregates crossbars into large analog domains.
ARRAY_ROWS = 256
OUTPUTS_PER_ARRAY = 64

#: Per-event energies (28 nm re-model).
TDI_PJ_PER_CONVERSION = 0.12  # time-domain interface crossing
CONVERSIONS_PER_VMM = OUTPUTS_PER_ARRAY  # one crossing per output, no slicing
DRIVER_PJ_PER_ROW = 0.05  # low-cost input DACs (1 conversion per row)
ARRAY_PJ_PER_OUTPUT = 14.0  # long analog chains across the 256-row block
ANALOG_BUFFER_PJ_PER_OUTPUT = 3.5  # analog local buffers (charge recharge)


def unit_vmm_energy_pj() -> float:
    """All-in energy of one 256x64 8-bit block VMM."""
    interfaces = CONVERSIONS_PER_VMM * TDI_PJ_PER_CONVERSION
    drivers = ARRAY_ROWS * DRIVER_PJ_PER_ROW
    array = OUTPUTS_PER_ARRAY * ARRAY_PJ_PER_OUTPUT
    buffers = OUTPUTS_PER_ARRAY * ANALOG_BUFFER_PJ_PER_OUTPUT
    return interfaces + drivers + array + buffers


def unit_vmm_latency_ns() -> float:
    """Analog chaining through the block: ~130 ns per block VMM."""
    return 130.0


def timely_spec() -> AcceleratorSpec:
    """TIMELY re-modeled at 28 nm on an area-normalized die."""
    return AcceleratorSpec(
        name="timely",
        unit_input_dim=ARRAY_ROWS,
        unit_output_dim=OUTPUTS_PER_ARRAY,
        unit_vmm_energy_pj=unit_vmm_energy_pj(),
        unit_vmm_latency_ns=unit_vmm_latency_ns(),
        n_units=5_200,
        power_gating=False,
        dynamic_write_pj_per_bit=constants.RERAM_WRITE_PJ_PER_BIT,
        dynamic_write_ns_per_row=50.0,
        # 5.2k blocks x 256 x 64 8-bit weights = 85 MB; TIMELY's dense
        # sub-chip organisation roughly doubles effective capacity.
        weight_capacity_bytes=int(5_200 * ARRAY_ROWS * OUTPUTS_PER_ARRAY * 2),
        edram_pj_per_bit=0.1,
        noc_pj_per_bit=0.08,
        offchip_pj_per_bit=1.6,
        offchip_gbps=6.4,
        area_mm2=111.2,
    )
