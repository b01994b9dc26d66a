"""The in-situ multiply-accumulate unit (IMA).

An IMA integrates an 8x8 grid of in-charge computing arrays (Fig. 4):
inputs are multicast horizontally through row drivers, partial sums are
aggregated vertically through time-domain accumulator chains, and 32x8
8-bit TDCs read the results out.  One IMA invocation performs a full
1024x256 8-bit VMM in <15 ns for ~4.235 nJ — the paper's headline
123.8 TOPS/W / 34.9 TOPS operating point.

Two fidelity levels are provided:

* :class:`DetailedIMA` — every capacitor, charge share, VTC and TDC is
  simulated.  Used for circuit-level characterisation (Fig. 6).
* :class:`FastIMA` — ideal integer arithmetic plus a calibrated error model
  (static per-column gain/offset plus per-read noise, then 8-bit
  quantization).  Used for network-scale studies (Fig. 6(f)) where the
  detailed model would be needlessly slow.  Its default parameters are
  calibrated against :class:`DetailedIMA` (see
  ``tests/test_ima.py::TestFastModelCalibration``).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro.analog.variation import VariationModel, make_rng
from repro.core.array import InChargeArray
from repro.core.config import IMAConfig
from repro.core.tda import TimeDomainAccumulator
from repro.core.tdc import TimeToDigitalConverter


class DetailedIMA:
    """Circuit-accurate IMA: 64 arrays + TDA chains + TDC bank.

    Parameters
    ----------
    config:
        IMA geometry/costs (defaults to the paper's 8x8 grid of 128x256
        arrays).
    variation:
        Analog error model shared by all sub-circuits; each array and the
        TDA sample independent static mismatch from spawned RNG streams.
    seed:
        Root seed for reproducible instance fabrication.
    """

    def __init__(
        self,
        config: Optional[IMAConfig] = None,
        variation: Optional[VariationModel] = None,
        seed: Optional[int] = None,
    ) -> None:
        self._config = config if config is not None else IMAConfig()
        self._variation = variation if variation is not None else VariationModel.typical()
        cfg = self._config
        root = np.random.SeedSequence(seed)
        streams = root.spawn(cfg.n_arrays + 1)
        self._arrays: List[List[InChargeArray]] = []
        index = 0
        for _ in range(cfg.grid_rows):
            row = []
            for _ in range(cfg.grid_cols):
                row.append(
                    InChargeArray(
                        config=cfg.array,
                        variation=self._variation,
                        rng=np.random.default_rng(streams[index]),
                    )
                )
                index += 1
            self._arrays.append(row)
        self._tda = TimeDomainAccumulator(
            n_chains=cfg.output_dim,
            n_stages=cfg.grid_rows,
            variation=self._variation,
            rng=np.random.default_rng(streams[-1]),
            full_scale_delay_s=cfg.vtc_full_scale_delay_ps * 1e-12,
        )
        self._tdc = TimeToDigitalConverter(
            bits=cfg.tdc_bits, full_scale_s=self._tda.full_scale_delta_s
        )
        self._weights: Optional[np.ndarray] = None
        self._vmm_count = 0

    # -- accessors -----------------------------------------------------------------
    @property
    def config(self) -> IMAConfig:
        return self._config

    @property
    def tda(self) -> TimeDomainAccumulator:
        return self._tda

    @property
    def tdc(self) -> TimeToDigitalConverter:
        return self._tdc

    @property
    def vmm_count(self) -> int:
        return self._vmm_count

    @property
    def dot_product_per_code(self) -> float:
        """Dot-product units represented by one output code.

        The TDC code equals ``sum_i(X_i * W_i) / (input_dim * w_max)``, so
        dequantization multiplies codes by ``input_dim * 255``.
        """
        cfg = self._config
        return float(cfg.input_dim * ((1 << cfg.array.weight_bits) - 1))

    # -- programming ---------------------------------------------------------------
    def program_weights(self, weights: np.ndarray) -> None:
        """Store an unsigned 8-bit weight matrix of shape (1024, 256)."""
        cfg = self._config
        w = np.asarray(weights)
        expected = (cfg.input_dim, cfg.output_dim)
        if w.shape != expected:
            raise ValueError(f"expected weights of shape {expected}, got {w.shape}")
        rows_per = cfg.array.rows
        cbs_per = cfg.array.n_cbs
        for a, row in enumerate(self._arrays):
            for c, array in enumerate(row):
                block = w[a * rows_per : (a + 1) * rows_per, c * cbs_per : (c + 1) * cbs_per]
                array.program_weights(block)
        self._weights = w.astype(np.int64).copy()

    @property
    def weights(self) -> Optional[np.ndarray]:
        return None if self._weights is None else self._weights.copy()

    # -- compute --------------------------------------------------------------------
    def vmm_batch(self, x_batch: np.ndarray) -> np.ndarray:
        """Batched VMM: (m, input_dim) codes -> (m, output_dim) 8-bit codes.

        Each array reads the whole batch in one call and the TDA chains
        convert vector by vector, so every generator draws what ``m`` single
        :meth:`vmm` calls draw and the codes are theirs, bit for bit.
        """
        cfg = self._config
        if self._weights is None:
            raise RuntimeError("program_weights must be called before vmm")
        x = np.asarray(x_batch)
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ValueError(f"expected (m, {cfg.input_dim}) inputs, got {x.shape}")
        rows_per = cfg.array.rows
        cbs_per = cfg.array.n_cbs
        # Stage voltages per chain: V[vector, output, grid_row].
        stage_volts = np.empty((len(x), cfg.output_dim, cfg.grid_rows))
        for a, row in enumerate(self._arrays):
            x_slice = x[:, a * rows_per : (a + 1) * rows_per]
            for c, array in enumerate(row):
                stage_volts[:, c * cbs_per : (c + 1) * cbs_per, a] = array.vmm_voltages(x_slice)
        codes = np.empty((len(x), cfg.output_dim), dtype=np.int64)
        for i, volts in enumerate(stage_volts):
            codes[i] = self._tdc.quantize(self._tda.accumulate(volts))
        self._vmm_count += len(x)
        return codes

    def vmm(self, x: np.ndarray) -> np.ndarray:
        """One full VMM; returns (output_dim,) 8-bit codes."""
        codes_in = np.asarray(x)
        if codes_in.shape != (self._config.input_dim,):
            raise ValueError(f"expected input of shape ({self._config.input_dim},)")
        return self.vmm_batch(codes_in[None, :])[0]

    def vmm_dequantized_batch(self, x_batch: np.ndarray) -> np.ndarray:
        """Batched VMM returning estimated integer dot products (codes rescaled)."""
        return self.vmm_batch(x_batch).astype(float) * self.dot_product_per_code

    def vmm_dequantized(self, x: np.ndarray) -> np.ndarray:
        """VMM returning estimated integer dot products (codes rescaled)."""
        return self.vmm(x).astype(float) * self.dot_product_per_code

    def ideal_codes(self, x: np.ndarray) -> np.ndarray:
        """Noiseless output codes from pure integer arithmetic."""
        if self._weights is None:
            raise RuntimeError("program_weights must be called before ideal_codes")
        dots = np.asarray(x, dtype=np.int64) @ self._weights
        codes = np.rint(dots / self.dot_product_per_code).astype(np.int64)
        return np.clip(codes, 0, self._tdc.max_code)

    def code_error(self, x: np.ndarray) -> np.ndarray:
        """Signed end-to-end error in code units (1 code = 1/256 full scale)
        of one input, (input_dim,), or of a batch, (m, input_dim)."""
        read = self.vmm_batch if np.ndim(x) == 2 else self.vmm
        return read(x).astype(float) - self.ideal_codes(x).astype(float)

    # -- costs ----------------------------------------------------------------------
    @property
    def vmm_energy_pj(self) -> float:
        """Energy per VMM from the Table II component roll-up."""
        return self._config.vmm_energy_pj

    @property
    def vmm_latency_ns(self) -> float:
        return self._config.vmm_latency_ns

    @property
    def total_energy_pj(self) -> float:
        """Lifetime compute energy."""
        return self._vmm_count * self.vmm_energy_pj


@dataclasses.dataclass(frozen=True)
class IMAErrorModel:
    """Calibrated statistical stand-in for the detailed analog path.

    All parameters are in output-code units (1 code = 1/256 of full scale):

    Attributes
    ----------
    read_noise_codes:
        Per-read Gaussian noise (charge injection + kT/C + jitter).
    column_gain_sigma:
        Static relative gain mismatch per output column (capacitor ratio
        and VTC gain errors).
    column_offset_codes:
        Static per-column offset.
    """

    read_noise_codes: float = 0.20
    column_gain_sigma: float = 0.0008
    column_offset_codes: float = 0.12

    @classmethod
    def ideal(cls) -> "IMAErrorModel":
        return cls(read_noise_codes=0.0, column_gain_sigma=0.0, column_offset_codes=0.0)


class FastIMA:
    """Vectorized IMA model: integer GEMM + calibrated error injection.

    Computes batched VMMs in one numpy GEMM, then applies the static
    per-column gain/offset of this fabricated instance, per-read noise, and
    8-bit readout quantization.

    The readout supports *programmable per-column windows* — our model of
    the tile's quantization circuit (32 KB of per-column range state,
    Section III-C): a programmable TDC start offset and conversion gain map
    a column's expected dot-product range ``[lo, hi]`` onto the 256 output
    codes instead of the theoretical full scale, recovering the effective
    resolution that full-scale readout would waste on unused range.  Without
    a window the readout uses the physical full scale.
    """

    def __init__(
        self,
        config: Optional[IMAConfig] = None,
        error_model: Optional[IMAErrorModel] = None,
        seed: Optional[int] = None,
    ) -> None:
        self._config = config if config is not None else IMAConfig()
        self._error = error_model if error_model is not None else IMAErrorModel()
        self._rng = make_rng(seed)
        cfg = self._config
        n = cfg.output_dim
        if self._error.column_gain_sigma > 0.0:
            self._column_gain = self._rng.normal(1.0, self._error.column_gain_sigma, n)
        else:
            self._column_gain = np.ones(n)
        if self._error.column_offset_codes > 0.0:
            self._column_offset = self._rng.normal(0.0, self._error.column_offset_codes, n)
        else:
            self._column_offset = np.zeros(n)
        self._weights: Optional[np.ndarray] = None
        self._window_lo: Optional[np.ndarray] = None
        self._window_hi: Optional[np.ndarray] = None
        self._vmm_count = 0

    @property
    def config(self) -> IMAConfig:
        return self._config

    @property
    def error_model(self) -> IMAErrorModel:
        return self._error

    @property
    def vmm_count(self) -> int:
        return self._vmm_count

    @property
    def dot_product_per_code(self) -> float:
        cfg = self._config
        return float(cfg.input_dim * ((1 << cfg.array.weight_bits) - 1))

    def program_weights(self, weights: np.ndarray) -> None:
        """Store an unsigned 8-bit weight matrix of shape (1024, 256)."""
        cfg = self._config
        w = np.asarray(weights)
        expected = (cfg.input_dim, cfg.output_dim)
        if w.shape != expected:
            raise ValueError(f"expected weights of shape {expected}, got {w.shape}")
        if np.any(w < 0) or np.any(w >= (1 << cfg.array.weight_bits)):
            raise ValueError("weights must be unsigned 8-bit")
        self._weights = w.astype(np.int64).copy()

    @property
    def weights(self) -> Optional[np.ndarray]:
        return None if self._weights is None else self._weights.copy()

    # -- readout window (quantization-circuit model) ------------------------------
    def set_readout_window(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Program per-column readout windows, in dot-product units.

        ``lo``/``hi`` are (output_dim,) arrays; the TDC then maps
        ``[lo_j, hi_j]`` onto codes 0..255 for column ``j``.  Dot products
        outside the window saturate, exactly like an over-range converter.
        """
        cfg = self._config
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != (cfg.output_dim,) or hi.shape != (cfg.output_dim,):
            raise ValueError(f"windows must have shape ({cfg.output_dim},)")
        if np.any(hi <= lo):
            raise ValueError("window upper bounds must exceed lower bounds")
        self._window_lo = lo
        self._window_hi = hi

    def clear_readout_window(self) -> None:
        """Return to full-scale readout."""
        self._window_lo = None
        self._window_hi = None

    @property
    def has_readout_window(self) -> bool:
        return self._window_lo is not None

    def _code_step(self) -> "np.ndarray | float":
        """Dot-product units per output code (per column when windowed)."""
        if self._window_lo is None:
            return self.dot_product_per_code
        max_code = float((1 << self._config.tdc_bits) - 1)
        return (self._window_hi - self._window_lo) / max_code

    def vmm_batch(self, x_batch: np.ndarray) -> np.ndarray:
        """Batched VMM: (m, input_dim) uint8 -> (m, output_dim) codes."""
        cfg = self._config
        if self._weights is None:
            raise RuntimeError("program_weights must be called before vmm_batch")
        x = np.asarray(x_batch)
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ValueError(f"expected (m, {cfg.input_dim}) inputs, got {x.shape}")
        if np.any(x < 0) or np.any(x >= (1 << cfg.array.input_bits)):
            raise ValueError("input codes must be unsigned 8-bit")
        dots = (x.astype(np.int64) @ self._weights).astype(float)
        if self._window_lo is not None:
            ideal_codes = (dots - self._window_lo[None, :]) / self._code_step()
        else:
            ideal_codes = dots / self.dot_product_per_code
        noisy = ideal_codes * self._column_gain[None, :] + self._column_offset[None, :]
        if self._error.read_noise_codes > 0.0:
            noisy = noisy + self._rng.normal(0.0, self._error.read_noise_codes, noisy.shape)
        codes = np.clip(np.rint(noisy), 0, (1 << cfg.tdc_bits) - 1).astype(np.int64)
        self._vmm_count += x.shape[0]
        return codes

    def vmm(self, x: np.ndarray) -> np.ndarray:
        """Single-vector VMM (detail-model-compatible signature)."""
        return self.vmm_batch(np.asarray(x)[None, :])[0]

    def vmm_dequantized_batch(self, x_batch: np.ndarray) -> np.ndarray:
        """Batched VMM returning estimated integer dot products."""
        codes = self.vmm_batch(x_batch).astype(float)
        if self._window_lo is not None:
            return codes * self._code_step()[None, :] + self._window_lo[None, :]
        return codes * self.dot_product_per_code

    @property
    def total_energy_pj(self) -> float:
        return self._vmm_count * self._config.vmm_energy_pj
