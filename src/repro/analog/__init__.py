"""Analog behavioral substrate: device variation, converter metrics and
Monte-Carlo harness.

This package replaces the paper's Cadence Virtuoso circuit simulations with
behavioral models that keep the same error mechanisms: capacitor mismatch,
switch charge injection, kT/C sampling noise, VTC jitter and PVT corners.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "metrics": (
        "ErrorStats",
        "TransferCurve",
        "differential_nonlinearity",
        "error_stats",
        "integral_nonlinearity",
        "mac_error_fraction",
    ),
    "montecarlo": ("MonteCarloResult", "run_monte_carlo"),
    "variation": ("Corner", "VariationModel"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
