"""YOCO core: the paper's primary contribution.

Hierarchy (Section III-C): MCC -> in-charge computing array -> IMA -> tile
-> chip, plus the time-domain accumulation readout and the quantized GEMM
engine that lets networks run on IMA grain.
"""

from repro.core.array import ArrayDiagnostics, InChargeArray, input_conversion_transfer_curve
from repro.core.charge import (
    binary_group_sizes,
    charge_share,
    dac_voltage,
    group_index_map,
    shared_charge,
)
from repro.core.chip import Chip, WeightAllocation
from repro.core.components import build_component_library
from repro.core.config import ArrayConfig, ChipConfig, IMAConfig, TileConfig, paper_config
from repro.core.engine import YocoMatmulEngine
from repro.core.ima import DetailedIMA, FastIMA, IMAErrorModel
from repro.core.tda import TimeDomainAccumulator
from repro.core.tdc import TimeToDigitalConverter
from repro.core.tile import SpecialFunctionUnit, Tile

__all__ = [
    "ArrayConfig",
    "ArrayDiagnostics",
    "Chip",
    "ChipConfig",
    "DetailedIMA",
    "FastIMA",
    "IMAConfig",
    "IMAErrorModel",
    "InChargeArray",
    "SpecialFunctionUnit",
    "Tile",
    "TileConfig",
    "TimeDomainAccumulator",
    "TimeToDigitalConverter",
    "WeightAllocation",
    "YocoMatmulEngine",
    "binary_group_sizes",
    "build_component_library",
    "charge_share",
    "dac_voltage",
    "group_index_map",
    "input_conversion_transfer_curve",
    "paper_config",
    "shared_charge",
]
