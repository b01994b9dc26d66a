"""YOCO core: the paper's primary contribution.

Hierarchy (Section III-C): MCC -> in-charge computing array -> IMA, with
the tile and chip as configurations (:mod:`repro.core.config`), plus the
time-domain accumulation readout and the quantized GEMM engine that lets
networks run on IMA grain.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "array": ("ArrayDiagnostics", "InChargeArray", "input_conversion_transfer_curve"),
    "charge": (
        "binary_group_sizes",
        "charge_share",
        "dac_voltage",
        "group_index_map",
        "shared_charge",
    ),
    "config": ("ArrayConfig", "ChipConfig", "IMAConfig", "TileConfig", "paper_config"),
    "engine": ("YocoMatmulEngine",),
    "ima": ("DetailedIMA", "FastIMA", "IMAErrorModel"),
    "tda": ("TimeDomainAccumulator",),
    "tdc": ("TimeToDigitalConverter",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
