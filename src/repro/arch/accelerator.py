"""Unified accelerator abstraction for the architecture comparison.

Every accelerator in the Fig. 8 study — YOCO and the three baselines — is
expressed as a pool of *compute units* (IMA-grain VMM engines) plus shared
memory/interconnect cost coefficients.  One mapper
(:mod:`repro.arch.mapper`) then places every workload identically on all of
them, so differences in the results come only from the parameters that
actually differ: unit grain, per-VMM energy/latency (the converts/MAC
economics), dynamic-write cost, and on-chip weight capacity.
"""

from __future__ import annotations

import dataclasses

from repro import constants
from repro.core.config import ChipConfig, paper_config


@dataclasses.dataclass(frozen=True)
class AcceleratorSpec:
    """Parameters of one accelerator in the unified model.

    Attributes
    ----------
    unit_input_dim / unit_output_dim:
        K/N grain of one compute unit's VMM.
    unit_vmm_energy_pj / unit_vmm_latency_ns:
        All-in compute cost of one full-grain VMM (array + converters +
        local digital).
    n_units:
        Parallel units on the (area-normalized) chip.
    power_gating:
        Whether partially filled units scale energy with the active
        fraction (YOCO's reconfigurable IMA) or burn the full grain.
    dynamic_write_pj_per_bit:
        Cost of programming a *dynamic* operand (attention K/Q/V) into a
        unit.  SRAM-backed DIMAs make this cheap; ReRAM-only designs pay
        SET/RESET energy — the hybrid-memory argument in one number.
    dynamic_write_ns_per_row:
        Latency to program one wordline row of a dynamic operand.
    weight_capacity_bytes:
        On-chip storage for static weights; overflow streams from off-chip.
    edram_pj_per_bit / noc_pj_per_bit:
        Activation movement costs.
    offchip_pj_per_bit / offchip_gbps:
        Off-chip link (HyperTransport-class) energy and bandwidth.
    area_mm2:
        Die area (all four designs are area-normalized at 28 nm).
    """

    name: str
    unit_input_dim: int
    unit_output_dim: int
    unit_vmm_energy_pj: float
    unit_vmm_latency_ns: float
    n_units: int
    power_gating: bool
    dynamic_write_pj_per_bit: float
    dynamic_write_ns_per_row: float
    weight_capacity_bytes: int
    edram_pj_per_bit: float
    noc_pj_per_bit: float
    offchip_pj_per_bit: float
    offchip_gbps: float
    area_mm2: float

    def __post_init__(self) -> None:
        if self.unit_input_dim <= 0 or self.unit_output_dim <= 0:
            raise ValueError("unit dimensions must be positive")
        if self.n_units <= 0:
            raise ValueError("n_units must be positive")
        if self.unit_vmm_energy_pj <= 0 or self.unit_vmm_latency_ns <= 0:
            raise ValueError("unit costs must be positive")

    @property
    def macs_per_vmm(self) -> int:
        return self.unit_input_dim * self.unit_output_dim

    @property
    def peak_tops(self) -> float:
        """Peak 8-bit throughput of the whole chip."""
        per_unit = 2 * self.macs_per_vmm / (self.unit_vmm_latency_ns * 1e-9)
        return self.n_units * per_unit / 1e12

    @property
    def peak_tops_per_watt(self) -> float:
        """Peak compute-only energy efficiency."""
        return 2 * self.macs_per_vmm / self.unit_vmm_energy_pj

    @property
    def peak_watts(self) -> float:
        """Draw with every unit computing flat out (peak TOPS over TOPS/W).

        The anchor the serving power model scales from: a chip's
        idle/leakage floor is a configured fraction of this number, and a
        power cap is only meaningful somewhere below it.
        """
        return self.peak_tops / self.peak_tops_per_watt


def yoco_spec(config: "ChipConfig | None" = None) -> AcceleratorSpec:
    """YOCO as an :class:`AcceleratorSpec`, derived from Table II."""
    cfg = config if config is not None else paper_config()
    ima = cfg.tile.ima
    return AcceleratorSpec(
        name="yoco",
        unit_input_dim=ima.input_dim,
        unit_output_dim=ima.output_dim,
        unit_vmm_energy_pj=ima.vmm_energy_pj,
        unit_vmm_latency_ns=ima.vmm_period_ns,
        n_units=cfg.n_imas,
        power_gating=True,
        # SRAM DIMA write: cluster write energy per bit.
        dynamic_write_pj_per_bit=constants.SRAM_WRITE_PJ_PER_BIT,
        dynamic_write_ns_per_row=0.5,
        weight_capacity_bytes=cfg.sima_weight_capacity_bytes,
        edram_pj_per_bit=cfg.tile.edram_energy_pj_per_bit,
        noc_pj_per_bit=cfg.noc_energy_pj_per_bit,
        offchip_pj_per_bit=cfg.hyperlink_energy_pj_per_bit,
        offchip_gbps=cfg.hyperlink_bandwidth_gbps,
        area_mm2=cfg.area_um2 * 1e-6,
    )
