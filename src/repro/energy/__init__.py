"""Energy / area / latency modeling framework.

A small accelergy-style accounting stack: components declare named actions
with per-action energies, and an :class:`~repro.energy.ledger.EnergyLedger`
accumulates action counts during simulation.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "action": ("Action",),
    "component": ("Component", "ComponentLibrary"),
    "ledger": ("EnergyLedger", "LedgerEntry"),
    "units": (
        "GIGA",
        "MEGA",
        "MM2_PER_UM2",
        "fj_to_pj",
        "j_to_pj",
        "ns_to_s",
        "pj_to_j",
        "s_to_ns",
        "tops",
        "tops_per_watt",
        "um2_to_mm2",
        "watts",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
