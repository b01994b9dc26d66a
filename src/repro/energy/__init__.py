"""Energy / area / latency unit helpers (:mod:`repro.energy.units`).

Prices live elsewhere: the architecture simulator (:mod:`repro.arch`)
costs every layer, and :func:`repro.core.config.gated_vmm_energy_pj` is the
one price of a power-gated YOCO VMM.
"""

from repro._exports import lazy_exports

_EXPORTS = {
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
