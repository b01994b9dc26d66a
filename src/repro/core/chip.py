"""Chip: four tiles on an on-chip network plus a HyperTransport link.

The accelerator allocates one or more tiles per DNN layer depending on the
weight footprint (Section III-C).  This module provides the functional chip
container and the static-weight allocator used by examples; the
architecture-level performance roll-up lives in :mod:`repro.arch`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

from repro.core.components import build_component_library
from repro.core.config import ChipConfig
from repro.core.tile import Tile
from repro.energy.ledger import EnergyLedger


@dataclasses.dataclass(frozen=True)
class WeightAllocation:
    """Where a layer's static weights live on the chip."""

    layer_name: str
    weight_bytes: int
    tiles_used: int
    ima_contexts_used: int
    fits_on_chip: bool


class Chip:
    """A functional YOCO chip: tiles + interconnect + weight allocator.

    Every tile bills the chip's one ledger.
    """

    def __init__(self, config: Optional[ChipConfig] = None) -> None:
        self._config = config if config is not None else ChipConfig()
        self._library = build_component_library(self._config)
        self._ledger = EnergyLedger(self._library)
        self._tiles: List[Tile] = [
            Tile(self._config.tile, ledger=self._ledger)
            for _ in range(self._config.n_tiles)
        ]
        self._allocations: List[WeightAllocation] = []
        self._allocated_bytes = 0

    # -- structure ----------------------------------------------------------------
    @property
    def config(self) -> ChipConfig:
        return self._config

    @property
    def ledger(self) -> EnergyLedger:
        return self._ledger

    @property
    def tiles(self) -> List[Tile]:
        return list(self._tiles)

    @property
    def allocations(self) -> List[WeightAllocation]:
        return list(self._allocations)

    # -- interconnect ----------------------------------------------------------------
    def noc_transfer(self, n_bits: float, hops: int = 1) -> float:
        """Inter-tile transfer over the on-chip network; returns latency (ns)."""
        if n_bits < 0 or hops < 1:
            raise ValueError("n_bits must be >= 0 and hops >= 1")
        self._ledger.record("noc", "bit_hop", n_bits * hops)
        return hops * self._config.noc_latency_ns_per_hop

    def hyperlink_transfer(self, n_bits: float) -> float:
        """Off-chip transfer over HyperTransport; returns latency (ns)."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        self._ledger.record("hyperlink", "bit", n_bits)
        seconds = (n_bits / 8.0) / (self._config.hyperlink_bandwidth_gbps * 1e9)
        return seconds * 1e9

    # -- static-weight allocation -------------------------------------------------------
    @property
    def sima_capacity_bytes(self) -> int:
        """Static (ReRAM) weight capacity of the whole chip."""
        return self._config.sima_weight_capacity_bytes

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    def allocate_weights(self, layer_name: str, weight_bytes: int) -> WeightAllocation:
        """Place a layer's static weights, tracking chip occupancy.

        Layers beyond the on-chip ReRAM capacity are marked
        ``fits_on_chip=False`` — the mapper then bills HyperTransport
        reload traffic for them.
        """
        if weight_bytes < 0:
            raise ValueError("weight_bytes must be non-negative")
        tile_cfg = self._config.tile
        context_bytes = tile_cfg.weights_per_ima
        contexts = max(1, math.ceil(weight_bytes / context_bytes))
        contexts_per_tile = tile_cfg.n_sima * tile_cfg.sima_contexts
        tiles_used = min(
            self._config.n_tiles,
            max(1, math.ceil(contexts / contexts_per_tile)),
        )
        fits = self._allocated_bytes + weight_bytes <= self.sima_capacity_bytes
        if fits:
            self._allocated_bytes += weight_bytes
        allocation = WeightAllocation(
            layer_name=layer_name,
            weight_bytes=weight_bytes,
            tiles_used=tiles_used,
            ima_contexts_used=contexts,
            fits_on_chip=fits,
        )
        self._allocations.append(allocation)
        return allocation

    def reset_allocations(self) -> None:
        self._allocations.clear()
        self._allocated_bytes = 0
