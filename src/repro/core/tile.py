"""Tile: the hybrid-memory compute cluster.

A tile (Fig. 4) couples four *dynamic* IMAs (SRAM-backed — fast, endurant
writes for matrices that change every token: K, Q, V scores) with four
*static* IMAs (ReRAM-backed — dense storage for pinned weights: WQ/WK/WV,
FFN matrices) through an internal crossbar switch.  A 128 KB eDRAM caches
activations, a 128-lane SFU evaluates exp/max/scale for softmax, and a
quantization circuit (32 KB) rescales 8-bit partial outputs.

The tile model here is an *energy account*: the SFU computes, and the SFU,
crossbar, eDRAM and quantizer bill every action to an
:class:`~repro.energy.ledger.EnergyLedger`, so examples can run real
attention arithmetic and read off the paper-grade cost model at the end.
GEMMs run on :class:`~repro.core.engine.YocoMatmulEngine`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.components import build_component_library
from repro.core.config import ChipConfig, TileConfig
from repro.energy.ledger import EnergyLedger


class SpecialFunctionUnit:
    """The tile SFU: 128 parallel lanes for exp/max/scale (softmax support)."""

    def __init__(self, config: TileConfig, ledger: EnergyLedger) -> None:
        self._config = config
        self._ledger = ledger
        self._op_count = 0

    @property
    def op_count(self) -> int:
        return self._op_count

    def _bill(self, n_elements: int) -> None:
        self._op_count += n_elements
        self._ledger.record("sfu", "op", n_elements)

    def exp(self, x: np.ndarray) -> np.ndarray:
        """Elementwise exponential (the flash-attention score transform)."""
        arr = np.asarray(x, dtype=float)
        self._bill(arr.size)
        return np.exp(arr)

    def running_max(self, x: np.ndarray, current: np.ndarray) -> np.ndarray:
        """Numerically-stable softmax needs a running row max."""
        arr = np.asarray(x, dtype=float)
        self._bill(arr.size)
        return np.maximum(arr, current)

    def scale(self, x: np.ndarray, factor: "float | np.ndarray") -> np.ndarray:
        """Elementwise rescaling (softmax normalisation, dequantization)."""
        arr = np.asarray(x, dtype=float)
        self._bill(arr.size)
        return arr * factor

    def latency_ns(self, n_elements: int) -> float:
        """Latency of an n-element pass through the 128 lanes."""
        waves = math.ceil(n_elements / self._config.sfu_count)
        return waves * self._config.sfu_latency_ns


class Tile:
    """A tile's energy account: SFU + crossbar + eDRAM + quantizer."""

    def __init__(
        self,
        config: Optional[TileConfig] = None,
        ledger: Optional[EnergyLedger] = None,
    ) -> None:
        self._config = config if config is not None else TileConfig()
        if ledger is None:
            chip = ChipConfig(tile=self._config)
            ledger = EnergyLedger(build_component_library(chip))
        self._ledger = ledger
        self._sfu = SpecialFunctionUnit(self._config, ledger)

    # -- structure --------------------------------------------------------------
    @property
    def config(self) -> TileConfig:
        return self._config

    @property
    def ledger(self) -> EnergyLedger:
        return self._ledger

    @property
    def sfu(self) -> SpecialFunctionUnit:
        return self._sfu

    # -- interconnect -------------------------------------------------------------
    def crossbar_transfer(self, n_bits: float) -> float:
        """Move data between IMAs through the crossbar; returns latency (ns)."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        self._ledger.record("crossbar", "bit", n_bits)
        windows = math.ceil(n_bits / 256.0)
        return windows * self._config.crossbar_latency_ns_per_256b

    def edram_read(self, n_bits: float) -> None:
        """Bill an activation read from the tile cache."""
        self._ledger.record("edram", "read_bit", n_bits)

    def edram_write(self, n_bits: float) -> None:
        """Bill an activation write to the tile cache."""
        self._ledger.record("edram", "write_bit", n_bits)

    def quantize_outputs(self, n_elements: int) -> None:
        """Bill the output requantization circuit."""
        self._ledger.record("quant", "op", n_elements)
