"""Shared analysis helpers for the baseline accelerator models.

Section II-C's cost framework: in bit-sliced, block-wise analog IMC the
number of A/D conversions per MAC is

    converts/MAC = (input_slices x weight_slices) / array_rows

and each conversion costs ADC energy that scales ~4x per extra bit of
resolution.  These helpers quantify that arithmetic; the per-design modules
use them to justify their unit energies, and Fig. 9(b) uses them directly.
The converter energy formulas live in :mod:`repro.analog.converters` and
are re-exported here.
"""

from __future__ import annotations

import dataclasses

from repro.analog.converters import dac_energy_pj, sar_adc_energy_pj

__all__ = [
    "ConversionCost",
    "adc_conversions_per_mac",
    "dac_energy_pj",
    "sar_adc_energy_pj",
]


def adc_conversions_per_mac(
    array_rows: int, input_slices: int, weight_slices: int
) -> float:
    """A/D conversions amortized per MAC for a bit-sliced scheme."""
    if array_rows <= 0 or input_slices <= 0 or weight_slices <= 0:
        raise ValueError("all factors must be positive")
    return input_slices * weight_slices / array_rows


@dataclasses.dataclass(frozen=True)
class ConversionCost:
    """Readout-economics summary of one IMC design (drives Fig. 9(b))."""

    name: str
    input_slices: int
    weight_slices: int
    array_rows: int
    adc_bits: int

    @property
    def converts_per_mac(self) -> float:
        return adc_conversions_per_mac(
            self.array_rows, self.input_slices, self.weight_slices
        )

    @property
    def adc_energy_per_mac_pj(self) -> float:
        return self.converts_per_mac * sar_adc_energy_pj(self.adc_bits)
