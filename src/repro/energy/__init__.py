"""Energy / area / latency modeling framework.

A small accelergy-style accounting stack: components declare named actions
with per-action energies, and an :class:`~repro.energy.ledger.EnergyLedger`
accumulates action counts during simulation.
"""

from repro.energy.action import Action
from repro.energy.component import Component, ComponentLibrary
from repro.energy.ledger import EnergyLedger, LedgerEntry
from repro.energy.units import (
    GIGA,
    MEGA,
    MM2_PER_UM2,
    fj_to_pj,
    j_to_pj,
    ns_to_s,
    pj_to_j,
    s_to_ns,
    tops,
    tops_per_watt,
    um2_to_mm2,
    watts,
)

__all__ = [
    "Action",
    "Component",
    "ComponentLibrary",
    "EnergyLedger",
    "GIGA",
    "LedgerEntry",
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
]
