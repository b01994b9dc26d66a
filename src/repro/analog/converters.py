"""Analytic ADC/DAC conversion energies.

The whole point of YOCO is *not* needing converters per MAC — but the
baselines do, and Fig. 9's overhead comparison quantifies exactly that.
:mod:`repro.baselines.base` re-exports these formulas, and the baseline
models price their readout with them.
"""

from __future__ import annotations


def sar_adc_energy_pj(bits: int, samples_per_second: float = 1.28e9) -> float:
    """First-order SAR ADC conversion energy at 28 nm.

    Walden-style scaling: energy doubles per bit; anchored at 2 pJ for the
    8-bit 1.28 GS/s converter ISAAC deploys.
    """
    if bits <= 0 or bits > 14:
        raise ValueError("bits must be in [1, 14]")
    anchor_bits, anchor_pj = 8, 2.0
    energy = anchor_pj * 2.0 ** (bits - anchor_bits)
    # Modest penalty for aggressive sample rates beyond the anchor.
    rate_factor = max(1.0, samples_per_second / 1.28e9) ** 0.5
    return energy * rate_factor


def dac_energy_pj(bits: int) -> float:
    """Capacitive DAC conversion energy (per input, per conversion).

    The switched-capacitor array dominates and its energy scales with the
    total capacitance ~ (2^bits - 1) units; anchored at 0.5 pJ for a full
    8-bit DAC, which makes the 1-bit case a plain 2 fJ line driver.
    """
    if bits <= 0 or bits > 14:
        raise ValueError("bits must be in [1, 14]")
    return 0.5 * (2.0**bits - 1.0) / 255.0
