"""Quantized GEMM engine on IMA grain.

The analog arrays compute *unsigned* 8-bit dot products.  Real networks use
asymmetric uint8 activations and symmetric int8 weights, so this engine
implements the standard zero-point algebra digitally (the role of the tile's
quantization circuit):

    sum_i (X_u[i] - zx) * W[i]              with W signed int8
  =  sum_i X_u[i] * (W[i] + 128)            <- analog, all-unsigned
   - 128 * sum_i X_u[i]                     <- digital row sum
   - zx * sum_i (W[i] + 128)                <- digital column sum (static)
   + zx * 128 * K                           <- constant

Oversized operands are tiled to the IMA's 1024x256 grain and partial results
accumulate digitally across K-tiles.  Small or ragged GEMMs exploit the
paper's *power gating*: "Each array is controlled by power gating, allowing
the computational scale of IMA to be reconfigurable and energy-saving"
(Section III-C).  Each call bills its VMMs once, on the whole GEMM's
active-MAC fraction, through :func:`~repro.core.config.gated_vmm_energy_pj`,
the price the architecture simulator charges for the same GEMM.  A tile
covering only ``k`` input rows reads out through ``ceil(k/128)`` grid rows
(and analogously grid columns), which keeps the 8-bit readout scaled to the
*active* dot-product range instead of the full 1024-row range.

Fidelity modes:

* ``ideal``   — exact integer math (no analog path), for reference runs.
* ``fast``    — :class:`~repro.core.ima.FastIMA` per (k, n) tile.
* ``detailed``— :class:`~repro.core.ima.DetailedIMA` per tile (slow; use for
  small shapes and circuit-level validation).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro import seeds
from repro.analog.variation import VariationModel
from repro.core.config import IMAConfig, gated_vmm_energy_pj
from repro.core.ima import DetailedIMA, FastIMA, IMAErrorModel

_MODES = ("ideal", "fast", "detailed")

#: Auto-window headroom: each column's calibrated readout window extends
#: this fraction of its observed dot-product span past either end.
_WINDOW_MARGIN = 0.5


class YocoMatmulEngine:
    """Tiled signed/unsigned int8 GEMM through behavioral IMAs.

    Parameters
    ----------
    mode:
        One of ``ideal``, ``fast``, ``detailed``.
    config:
        IMA configuration (grain size, readout resolution).
    error_model:
        Error model for ``fast`` mode.
    variation:
        Variation model for ``detailed`` mode.
    seed:
        Root seed; every (k, n) tile instance fabricates independently.
    """

    def __init__(
        self,
        mode: str = "fast",
        config: Optional[IMAConfig] = None,
        error_model: Optional[IMAErrorModel] = None,
        variation: Optional[VariationModel] = None,
        seed: int = 0,
        readout: str = "full",
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if readout not in ("full", "auto-window"):
            raise ValueError("readout must be 'full' or 'auto-window'")
        if readout == "auto-window" and mode == "detailed":
            raise ValueError(
                "auto-window readout is modeled on the fast path only; "
                "use mode='fast' (see repro.core.engine, "
                "YocoMatmulEngine._calibrate_window)"
            )
        self._mode = mode
        self._config = config if config is not None else IMAConfig()
        self._error_model = error_model
        self._variation = variation
        self._seed = seed
        self._readout = readout
        self._tiles: Dict[Tuple[int, int, int, int], object] = {}
        self._vmm_count = 0
        self._energy_pj = 0.0
        self._latency_ns = 0.0

    # -- accessors -----------------------------------------------------------------
    @property
    def mode(self) -> str:
        return self._mode

    @property
    def readout(self) -> str:
        return self._readout

    @property
    def config(self) -> IMAConfig:
        return self._config

    @property
    def vmm_count(self) -> int:
        """IMA-grain VMM invocations performed so far."""
        return self._vmm_count

    @property
    def total_energy_pj(self) -> float:
        """Compute energy of all VMMs issued so far (power-gating aware,
        :func:`~repro.core.config.gated_vmm_energy_pj` once per GEMM)."""
        return self._energy_pj

    @property
    def total_latency_ns(self) -> float:
        """Serial latency of all VMMs issued so far (one IMA, no overlap)."""
        return self._latency_ns

    # -- public GEMM APIs ------------------------------------------------------------
    def matmul_unsigned(self, x_u: np.ndarray, w_u: np.ndarray) -> np.ndarray:
        """All-unsigned GEMM: (m, k) uint8 @ (k, n) uint8 -> float estimates.

        This is the raw analog operation; outputs carry the readout
        quantization of one code per ``active_rows * 128 * 255`` dot-product
        units per K-tile.
        """
        x = self._check_operand(x_u, "x_u", 1 << self._config.array.input_bits)
        w = self._check_operand(w_u, "w_u", 1 << self._config.array.weight_bits)
        if x.shape[1] != w.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: {x.shape[1]} vs {w.shape[0]}"
            )
        k_grain = self._config.input_dim
        n_grain = self._config.output_dim
        m, k = x.shape
        n = w.shape[1]
        self._bill(m, k, n)
        result = np.zeros((m, n), dtype=float)
        for k0 in range(0, k, k_grain):
            k_span = min(k_grain, k - k0)
            x_rows = x[:, k0 : k0 + k_span].astype(np.int64)
            for n0 in range(0, n, n_grain):
                n_span = min(n_grain, n - n0)
                cfg = self._gated_config(k_span, n_span)
                x_tile = _pad_axis(x_rows, 1, cfg.input_dim)
                w_tile = _pad_block(
                    w[k0 : k0 + k_span, n0 : n0 + n_span].astype(np.int64),
                    cfg.input_dim,
                    cfg.output_dim,
                )
                estimates = self._tile_vmm(
                    k0 // k_grain, n0 // n_grain, cfg, x_tile, w_tile
                )
                result[:, n0 : n0 + n_span] += estimates[:, :n_span]
        return result

    def matmul_signed(
        self,
        x_u: np.ndarray,
        w_s: np.ndarray,
        x_zero_point: int = 0,
    ) -> np.ndarray:
        """Quantized GEMM with asymmetric uint8 inputs and int8 weights.

        Computes ``(x_u - x_zero_point) @ w_s`` with the analog path doing
        the heavy lifting and the zero-point algebra done digitally.
        """
        x = self._check_operand(x_u, "x_u", 1 << self._config.array.input_bits)
        w = np.asarray(w_s)
        if w.ndim != 2:
            raise ValueError("w_s must be 2-D")
        if np.any(w < -128) or np.any(w > 127):
            raise ValueError("w_s must be int8-ranged")
        if not 0 <= x_zero_point <= 255:
            raise ValueError("x_zero_point must be uint8-ranged")
        w_u = (w.astype(np.int64) + 128).astype(np.int64)
        s_uu = self.matmul_unsigned(x, w_u)
        row_sums = x.astype(np.int64).sum(axis=1).astype(float)  # (m,)
        col_sums = w_u.sum(axis=0).astype(float)  # (n,)
        k = x.shape[1]
        return (
            s_uu
            - 128.0 * row_sums[:, None]
            - float(x_zero_point) * col_sums[None, :]
            + 128.0 * float(x_zero_point) * k
        )

    # -- internals ---------------------------------------------------------------------
    def _bill(self, m: int, k: int, n: int) -> None:
        """Bill an (m, k, n) GEMM's VMMs, energy and serial latency."""
        k_tiles = math.ceil(k / self._config.input_dim)
        n_tiles = math.ceil(n / self._config.output_dim)
        vmm_count = m * k_tiles * n_tiles
        provisioned = k_tiles * n_tiles * self._config.input_dim * self._config.output_dim
        self._vmm_count += vmm_count
        self._energy_pj += gated_vmm_energy_pj(
            self._config.vmm_energy_pj, min(1.0, k * n / provisioned), vmm_count
        )
        self._latency_ns += vmm_count * self._config.vmm_period_ns

    def _gated_config(self, k_span: int, n_span: int) -> IMAConfig:
        """Power-gated IMA configuration covering a (k_span, n_span) tile.

        It sets the tile's readout range; the energy is billed per GEMM
        by :meth:`_bill`.
        """
        array = self._config.array
        rows_needed = math.ceil(k_span / array.rows)
        cols_needed = math.ceil(n_span / array.n_cbs)
        if (
            rows_needed == self._config.grid_rows
            and cols_needed == self._config.grid_cols
        ):
            return self._config
        return dataclasses.replace(
            self._config, grid_rows=rows_needed, grid_cols=cols_needed
        )

    def _tile_vmm(
        self,
        k_index: int,
        n_index: int,
        cfg: IMAConfig,
        x_tile: np.ndarray,
        w_tile: np.ndarray,
    ) -> np.ndarray:
        """Run one (k, n) tile for a whole input batch; returns estimates."""
        if self._mode == "ideal":
            return (x_tile.astype(np.int64) @ w_tile.astype(np.int64)).astype(float)
        unit, programmed = self._tile_unit(k_index, n_index, cfg, w_tile)
        if programmed and self._readout == "auto-window":
            self._calibrate_window(unit, x_tile, w_tile)
        return unit.vmm_dequantized_batch(x_tile)

    def _calibrate_window(self, unit: FastIMA, x_tile: np.ndarray, w_tile: np.ndarray) -> None:
        """Program per-column readout windows from the calibration batch.

        Models the tile quantization circuit: after (re)programming a weight
        matrix, a digital calibration pass picks each column's expected
        dot-product range and tunes the TDC offset/gain to it.
        """
        dots = (x_tile.astype(np.int64) @ w_tile.astype(np.int64)).astype(float)
        lo = dots.min(axis=0)
        hi = dots.max(axis=0)
        span = np.maximum(hi - lo, float(unit.config.array.rows))
        lo = lo - _WINDOW_MARGIN * span
        hi = hi + _WINDOW_MARGIN * span
        unit.set_readout_window(lo, hi)

    def _tile_unit(
        self, k_index: int, n_index: int, cfg: IMAConfig, w_tile: np.ndarray
    ) -> Tuple[object, bool]:
        """Fetch or fabricate the IMA owning one (k, n) weight tile.

        Returns ``(unit, programmed)`` where ``programmed`` reports whether
        the weights were (re)written on this call.
        """
        key = (k_index, n_index, cfg.grid_rows, cfg.grid_cols)
        unit = self._tiles.get(key)
        if unit is None:
            tile_seed = seeds.ima_tile(self._seed, key)
            if self._mode == "fast":
                unit = FastIMA(config=cfg, error_model=self._error_model, seed=tile_seed)
            else:
                unit = DetailedIMA(config=cfg, variation=self._variation, seed=tile_seed)
            self._tiles[key] = unit
            unit.program_weights(w_tile)
            return unit, True
        # Re-program only when the tile's weights changed (dynamic
        # matrices in DIMAs do this every token).
        current = unit.weights
        if current is None or not np.array_equal(current, w_tile):
            unit.program_weights(w_tile)
            return unit, True
        return unit, False

    @staticmethod
    def _check_operand(arr: np.ndarray, name: str, limit: int) -> np.ndarray:
        """Validate a 2-D code operand; tiles are cast to int64 as they are cut."""
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= limit):
            raise ValueError(f"{name} values must be in [0, {limit - 1}]")
        return a


def _pad_axis(arr: np.ndarray, axis: int, size: int) -> np.ndarray:
    """Zero-pad one axis of ``arr`` up to ``size``."""
    if arr.shape[axis] == size:
        return arr
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (0, size - arr.shape[axis])
    return np.pad(arr, pad)


def _pad_block(arr: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Zero-pad a 2-D block to (rows, cols)."""
    return np.pad(arr, ((0, rows - arr.shape[0]), (0, cols - arr.shape[1])))
