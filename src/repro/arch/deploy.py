"""Chip deployment: run a real network on the functional chip model.

:class:`ChipBackend` is an inference backend (pluggable into
``Module.infer``) that executes every GEMM on behavioral IMAs *and* bills
the surrounding chip activity to the chip's energy ledger:

* activations read from / written to tile eDRAM,
* operand distribution over the intra-tile crossbar,
* weight programming — cheap SRAM writes when a layer's matrix changes
  between calls (a *dynamic* operand on a DIMA), expensive one-time ReRAM
  writes for static layers on SIMAs,
* the analog compute itself (IMA VMM actions, power-gating aware).

One evaluation pass therefore yields classification accuracy *and* a
component-resolved energy account — the two sides of the paper's story —
from the same simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro import seeds
from repro.core.chip import Chip
from repro.core.engine import YocoMatmulEngine
from repro.nn.backend import QuantizedBackend


@dataclasses.dataclass(frozen=True)
class DeploymentReport:
    """Energy/occupancy summary of one deployment's activity."""

    compute_energy_pj: float
    movement_energy_pj: float
    weight_write_energy_pj: float
    vmm_count: int
    static_layers: int
    dynamic_layers: int

    @property
    def total_energy_pj(self) -> float:
        return (
            self.compute_energy_pj
            + self.movement_energy_pj
            + self.weight_write_energy_pj
        )

    def breakdown(self) -> Dict[str, float]:
        return {
            "compute": self.compute_energy_pj,
            "data_movement": self.movement_energy_pj,
            "weight_writes": self.weight_write_energy_pj,
        }


class ChipBackend(QuantizedBackend):
    """Quantized inference backend bound to a functional :class:`Chip`.

    Layers are classified by observation: a named GEMM whose weight matrix
    never changes is *static* (SIMA-resident; programming billed once at
    ReRAM cost), one that changes between calls is *dynamic* (DIMA-resident;
    SRAM programming billed per change).  Layers round-robin across tiles.

    Parameters
    ----------
    chip:
        The functional chip (defaults to the paper configuration).
    mode / readout / seed:
        Forwarded to the per-layer GEMM engines.
    """

    def __init__(
        self,
        chip: Optional[Chip] = None,
        mode: str = "fast",
        readout: str = "auto-window",
        seed: int = 0,
    ) -> None:
        super().__init__()
        self._chip = chip if chip is not None else Chip(seed=seed)
        self._mode = mode
        self._readout = readout if mode == "fast" else "full"
        self._seed = seed
        self._engines: Dict[str, YocoMatmulEngine] = {}
        self._layer_tile: Dict[str, int] = {}
        self._layer_weights: Dict[str, np.ndarray] = {}
        self._layer_dynamic: Dict[str, bool] = {}
        self._next_tile = 0

    # -- accessors -----------------------------------------------------------------
    @property
    def chip(self) -> Chip:
        return self._chip

    def report(self) -> DeploymentReport:
        """Summarize everything billed so far."""
        ledger = self._chip.ledger
        by_component = ledger.energy_by_component_pj()
        movement = sum(
            by_component.get(name, 0.0) for name in ("edram", "crossbar", "noc")
        )
        writes = by_component.get("dima", 0.0) + by_component.get("sima", 0.0)
        compute = sum(engine.total_energy_pj for engine in self._engines.values())
        dynamic = sum(1 for flag in self._layer_dynamic.values() if flag)
        return DeploymentReport(
            compute_energy_pj=compute,
            movement_energy_pj=movement,
            weight_write_energy_pj=writes,
            vmm_count=sum(engine.vmm_count for engine in self._engines.values()),
            static_layers=len(self._layer_dynamic) - dynamic,
            dynamic_layers=dynamic,
        )

    def reset(self) -> None:
        super().reset()
        self._engines.clear()
        self._layer_tile.clear()
        self._layer_weights.clear()
        self._layer_dynamic.clear()
        self._next_tile = 0

    # -- QuantizedBackend hook ---------------------------------------------------------
    def _integer_matmul(
        self, name: str, x_codes: np.ndarray, w_codes: np.ndarray, zero_point: int
    ) -> np.ndarray:
        tile_index = self._assign_tile(name)
        tile = self._chip.tiles[tile_index]
        self._bill_weights(name, w_codes)

        # Activation traffic: inputs staged from eDRAM, outputs written back.
        input_bits = float(x_codes.size * 8)
        output_bits = float(x_codes.shape[0] * w_codes.shape[1] * 8)
        tile.edram_read(input_bits)
        tile.edram_write(output_bits)
        # Operand distribution to the IMA pool goes over the crossbar.
        tile.crossbar_transfer(input_bits)
        tile.quantize_outputs(x_codes.shape[0] * w_codes.shape[1])

        engine = self._engines.get(name)
        if engine is None:
            engine = YocoMatmulEngine(
                mode=self._mode,
                seed=seeds.named_layer(self._seed, name),
                readout=self._readout,
            )
            self._engines[name] = engine
        # Compute energy is tracked by the per-layer engine (power-gating
        # aware) and surfaced through `report()`; the chip ledger carries
        # the movement/programming actions billed above.
        return engine.matmul_signed(x_codes, w_codes, x_zero_point=zero_point)

    # -- internals ------------------------------------------------------------------
    def _assign_tile(self, name: str) -> int:
        tile = self._layer_tile.get(name)
        if tile is None:
            tile = self._next_tile % self._chip.config.n_tiles
            self._layer_tile[name] = tile
            self._next_tile += 1
        return tile

    def _bill_weights(self, name: str, w_codes: np.ndarray) -> None:
        """Bill programming when this layer's operand is new or changed."""
        previous = self._layer_weights.get(name)
        if previous is not None and np.array_equal(previous, w_codes):
            return
        changed = previous is not None
        self._layer_weights[name] = w_codes.copy()
        bits = float(w_codes.size * 8)
        if changed:
            # Observed mutation: this is a dynamic operand on a DIMA.
            self._layer_dynamic[name] = True
            self._chip.ledger.record("dima", "write_weight_bit", bits)
        else:
            self._layer_dynamic[name] = False
            self._chip.ledger.record("sima", "write_weight_bit", bits)
            self._chip.allocate_weights(name, w_codes.size)
