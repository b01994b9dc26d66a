"""Analog behavioral substrate: device variation, converter metrics and
Monte-Carlo harness.

This package replaces the paper's Cadence Virtuoso circuit simulations with
behavioral models that keep the same error mechanisms: capacitor mismatch,
switch charge injection, kT/C sampling noise, VTC jitter and PVT corners.
"""

from repro.analog.metrics import (
    ErrorStats,
    TransferCurve,
    differential_nonlinearity,
    error_stats,
    integral_nonlinearity,
    mac_error_fraction,
)
from repro.analog.montecarlo import MonteCarloResult, run_monte_carlo
from repro.analog.variation import Corner, VariationModel

__all__ = [
    "Corner",
    "ErrorStats",
    "MonteCarloResult",
    "TransferCurve",
    "VariationModel",
    "differential_nonlinearity",
    "error_stats",
    "integral_nonlinearity",
    "mac_error_fraction",
    "run_monte_carlo",
]
