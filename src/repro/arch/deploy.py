"""Chip deployment: run a real network and bill it at the simulator's prices.

:class:`ChipBackend` is an inference backend (pluggable into
``Module.infer``) that executes every GEMM on behavioral IMAs and records
the GEMM's shape.  Its :meth:`~ChipBackend.report` prices what it observed
with the same rules as the architecture simulator:

* compute and activation movement are
  :meth:`~repro.arch.simulator.ArchitectureSimulator.simulate_layer`
  summed over the observed GEMMs: the power-gated VMM energy of
  :func:`~repro.core.config.gated_vmm_energy_pj`, and inputs plus outputs
  through eDRAM and the on-chip network;
* weight programming follows the backend's own observation: one-time
  ReRAM writes for a layer whose matrix never changes (static, on a SIMA),
  cheap SRAM writes for every programming of a layer whose matrix changes
  (a *dynamic* operand on a DIMA, its first write included), at the write
  energies of :mod:`repro.constants`.

One evaluation pass therefore yields classification accuracy *and* an
energy account with the same per-GEMM prices as Fig. 8 and the serving
cost tables — the two sides of the paper's story — from one simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from repro import constants
from repro.arch.simulator import ArchitectureSimulator
from repro.models.workload import GemmShape, LayerKind, LayerSpec
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
    static_weight_bytes: int

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
    """A :class:`YocoBackend` whose GEMMs are billed at YOCO's one price list.

    Each GEMM runs on the parent's per-layer engines; the backend counts
    every ``(m, k, n)`` shape it sees and classifies layers by observation:
    a named GEMM whose weight matrix never changes is *static*
    (SIMA-resident; programming billed once at ReRAM cost), one that
    changes between calls is *dynamic* (DIMA-resident; every programming,
    the first included, billed at SRAM cost once the change is seen).

    Parameters
    ----------
    mode / readout / seed:
        As for :class:`YocoBackend`.
    """

    def __init__(
        self,
        mode: str = "fast",
        readout: str = "auto-window",
        seed: int = 0,
    ) -> None:
        super().__init__(mode=mode, seed=seed, readout=readout)
        self._simulator = ArchitectureSimulator()
        self._gemms: Dict[Tuple[int, int, int], int] = {}
        self._layer_weights: Dict[str, np.ndarray] = {}
        self._layer_dynamic: Dict[str, bool] = {}
        self._reram_write_bits = 0
        self._sram_write_bits = 0

    def report(self) -> DeploymentReport:
        """Price everything observed so far."""
        compute = movement = 0.0
        vmm_count = 0
        for (m, k, n), calls in self._gemms.items():
            layer = self._simulator.simulate_layer(
                LayerSpec("gemm", LayerKind.FC, GemmShape(m, k, n))
            )
            compute += calls * layer.compute_energy_pj
            movement += calls * layer.data_movement_energy_pj
            vmm_count += calls * layer.vmm_count
        dynamic = sum(1 for flag in self._layer_dynamic.values() if flag)
        return DeploymentReport(
            compute_energy_pj=compute,
            movement_energy_pj=movement,
            weight_write_energy_pj=(
                self._reram_write_bits * constants.RERAM_WRITE_PJ_PER_BIT
                + self._sram_write_bits * constants.SRAM_WRITE_PJ_PER_BIT
            ),
            vmm_count=vmm_count,
            static_layers=len(self._layer_dynamic) - dynamic,
            dynamic_layers=dynamic,
            static_weight_bytes=sum(
                w.size
                for name, w in self._layer_weights.items()
                if not self._layer_dynamic[name]
            ),
        )

    def reset(self) -> None:
        super().reset()
        self._gemms.clear()
        self._layer_weights.clear()
        self._layer_dynamic.clear()
        self._reram_write_bits = 0
        self._sram_write_bits = 0

    # -- YocoBackend hook --------------------------------------------------------------
    def _integer_matmul(
        self, name: str, x_codes: np.ndarray, w_codes: np.ndarray, zero_point: int
    ) -> np.ndarray:
        self._bill_weights(name, w_codes)
        shape = (x_codes.shape[0], x_codes.shape[1], w_codes.shape[1])
        self._gemms[shape] = self._gemms.get(shape, 0) + 1
        return super()._integer_matmul(name, x_codes, w_codes, zero_point)

    # -- internals ------------------------------------------------------------------
    def _bill_weights(self, name: str, w_codes: np.ndarray) -> None:
        """Count programming when this layer's operand is new or changed."""
        previous = self._layer_weights.get(name)
        if previous is not None and np.array_equal(previous, w_codes):
            return
        self._layer_weights[name] = w_codes.copy()
        if previous is None:
            # A first programming pins the matrix in a SIMA (ReRAM).
            self._layer_dynamic[name] = False
            self._reram_write_bits += w_codes.size * 8
            return
        # An observed mutation is a dynamic operand on a DIMA (SRAM), so
        # the first programming was an SRAM write too: re-bill it there.
        if not self._layer_dynamic[name]:
            self._layer_dynamic[name] = True
            self._reram_write_bits -= previous.size * 8
            self._sram_write_bits += previous.size * 8
        self._sram_write_bits += w_codes.size * 8
