"""Chip deployment: run a real network on the functional chip model.

:class:`ChipBackend` is an inference backend (pluggable into
``Module.infer``) that executes every GEMM on behavioral IMAs, whose
engines count the analog compute energy (power-gating aware), *and* bills
the surrounding chip activity to the chip's energy ledger:

* activations read from / written to tile eDRAM,
* operand distribution over the intra-tile crossbar,
* output requantization,
* weight programming — cheap SRAM writes when a layer's matrix changes
  between calls (a *dynamic* operand on a DIMA), expensive one-time ReRAM
  writes for static layers on SIMAs.

One evaluation pass therefore yields classification accuracy *and* a
component-resolved energy account — the two sides of the paper's story —
from the same simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro.core.chip import Chip
from repro.nn.backend import YocoBackend


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


class ChipBackend(YocoBackend):
    """A :class:`YocoBackend` bound to a functional :class:`Chip`.

    Each GEMM runs on the parent's per-layer engines after this backend
    bills its data movement and weight programming to the chip's ledger.
    Layers are classified by observation: a named GEMM whose weight matrix
    never changes is *static* (SIMA-resident; programming billed once at
    ReRAM cost), one that changes between calls is *dynamic* (DIMA-resident;
    SRAM programming billed per change).  Every action is billed to the
    chip's one ledger, which all of its tiles share.

    Parameters
    ----------
    chip:
        The functional chip (defaults to the paper configuration).
    mode / readout / seed:
        As for :class:`YocoBackend`.
    """

    def __init__(
        self,
        chip: Optional[Chip] = None,
        mode: str = "fast",
        readout: str = "auto-window",
        seed: int = 0,
    ) -> None:
        super().__init__(mode=mode, seed=seed, readout=readout)
        self._chip = chip if chip is not None else Chip()
        self._layer_weights: Dict[str, np.ndarray] = {}
        self._layer_dynamic: Dict[str, bool] = {}

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
        dynamic = sum(1 for flag in self._layer_dynamic.values() if flag)
        return DeploymentReport(
            compute_energy_pj=self.total_energy_pj,
            movement_energy_pj=movement,
            weight_write_energy_pj=writes,
            vmm_count=self.total_vmm_count,
            static_layers=len(self._layer_dynamic) - dynamic,
            dynamic_layers=dynamic,
        )

    def reset(self) -> None:
        super().reset()
        self._layer_weights.clear()
        self._layer_dynamic.clear()

    # -- YocoBackend hook --------------------------------------------------------------
    def _integer_matmul(
        self, name: str, x_codes: np.ndarray, w_codes: np.ndarray, zero_point: int
    ) -> np.ndarray:
        self._bill_weights(name, w_codes)
        ledger = self._chip.ledger
        outputs = x_codes.shape[0] * w_codes.shape[1]
        # Activation traffic: inputs staged from eDRAM, outputs written back.
        input_bits = float(x_codes.size * 8)
        ledger.record("edram", "read_bit", input_bits)
        ledger.record("edram", "write_bit", float(outputs * 8))
        # Operand distribution to the IMA pool goes over the crossbar.
        ledger.record("crossbar", "bit", input_bits)
        ledger.record("quant", "op", outputs)
        # Compute energy is tracked by the per-layer engine (power-gating
        # aware) and surfaced through `report()`; the chip ledger carries
        # the movement/programming actions billed above.
        return super()._integer_matmul(name, x_codes, w_codes, zero_point)

    # -- internals ------------------------------------------------------------------
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
