"""Physical and architectural constants shared across the YOCO model.

All values trace back to the paper (Table II and Section IV-A) or to basic
physics.  Everything is expressed in SI units unless the name carries an
explicit unit suffix (``_pj``, ``_ns``, ``_um2`` ...), matching the unit
conventions of :mod:`repro.energy.units`.
"""

from __future__ import annotations

import math

# --- Supply and resolution -------------------------------------------------
#: Nominal supply voltage.  The paper's LSB of 3.52 mV implies VDD/256 with
#: VDD = 0.9 V (a standard 28 nm core supply).
VDD_VOLT = 0.9

#: Ground reference.
VSS_VOLT = 0.0

#: Input, weight and readout resolution of the in-situ multiply arithmetic.
INPUT_BITS = 8
WEIGHT_BITS = 8
OUTPUT_BITS = 8

#: Voltage of one least-significant bit at the MAC node (paper: 3.52 mV).
LSB_VOLT = VDD_VOLT / (1 << OUTPUT_BITS)

# --- Devices (Table II, MCC row) --------------------------------------------
#: Unit MOM capacitor inside each memory-and-compute cell.
CU_FARAD = 2e-15

#: Energy per MCC activation (Table II: 1.62 fJ/act).
MCC_ENERGY_PER_ACT_J = 1.62e-15

#: MCC layout area (Table II: 0.8 um^2 per MCC; the MOM capacitor stacks on
#: top of the memory cluster so it adds no footprint).
MCC_AREA_UM2 = 0.8

#: SRAM bit-cell area used for the memory cluster (Table II: 0.096 um^2).
RAM_CELL_AREA_UM2 = 0.096

#: RAM cells per memory cluster: 8 SRAM bits in a DIMA cluster, 32 1T1R
#: ReRAM bits in a SIMA cluster (both fit under one MOM capacitor).
SRAM_BITS_PER_CLUSTER = 8
RERAM_BITS_PER_CLUSTER = 32

#: Weight-write energy per bit: an SRAM cluster bit (a DIMA write) against
#: a ReRAM SET/RESET pulse (a SIMA write).  The three-orders-of-magnitude
#: gap is the hybrid design's case for keeping dynamic operands in SRAM.
SRAM_WRITE_PJ_PER_BIT = 0.0012
RERAM_WRITE_PJ_PER_BIT = 2.0

# --- Array geometry (Section III-C) -----------------------------------------
#: Rows per in-charge computing array; each row carries one input element.
ARRAY_ROWS = 128

#: Columns per array; each column stores one weight bit-plane.
ARRAY_COLS = 256

#: Columns ganged into one compute bar (CB) — one CB per 8-bit weight.
CB_COLS = WEIGHT_BITS

#: Compute bars per array (256 / 8).
CBS_PER_ARRAY = ARRAY_COLS // CB_COLS

#: eDAC row grouping ratios: group 0 is pinned to VSS, groups 1..8 encode
#: input bits 0..7 with binary-ratioed capacitor counts (sums to 256).
ROW_GROUP_SIZES = (1, 1, 2, 4, 8, 16, 32, 64, 128)

#: Per-column eACC/eSA split ratios inside a CB (bit b contributes 2^b unit
#: capacitors to the final multi-column charge share; sums to 255).
CB_SHARE_COUNTS = tuple(1 << b for b in range(CB_COLS))

# --- IMA geometry ------------------------------------------------------------
#: Arrays per IMA along each direction (8x8 grid -> 1024x256 VMM).
IMA_GRID_ROWS = 8
IMA_GRID_COLS = 8

#: Input vector length of one IMA-grain VMM.
IMA_INPUT_DIM = ARRAY_ROWS * IMA_GRID_ROWS  # 1024

#: Output vector length of one IMA-grain VMM.
IMA_OUTPUT_DIM = CBS_PER_ARRAY * IMA_GRID_COLS  # 256

#: Two operations (multiply + add) per MAC.
OPS_PER_MAC = 2

#: Operations in one full IMA VMM.
IMA_OPS_PER_VMM = OPS_PER_MAC * IMA_INPUT_DIM * IMA_OUTPUT_DIM

# --- Timing ------------------------------------------------------------------
#: End-to-end IMA VMM latency (Section IV-B: 15 ns per 1024x256 VMM).
IMA_VMM_LATENCY_NS = 15.0

#: System clock chosen so one VMM fits in a cycle (Section IV-A: 50 MHz).
SYSTEM_CLOCK_HZ = 50e6

# --- Physics -----------------------------------------------------------------
#: Boltzmann constant times room temperature (300 K), in joules.
KT_JOULE = 1.380649e-23 * 300.0


def ktc_noise_sigma_volt(total_capacitance_farad: float) -> float:
    """RMS thermal (kT/C) noise voltage of a charge-sharing event.

    Parameters
    ----------
    total_capacitance_farad:
        Total capacitance participating in the share.
    """
    if total_capacitance_farad <= 0.0:
        raise ValueError("capacitance must be positive")
    return math.sqrt(KT_JOULE / total_capacitance_farad)
