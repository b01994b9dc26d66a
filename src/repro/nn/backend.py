"""Inference backends: where a network's GEMMs actually execute.

Three interchangeable backends let Fig. 6(f) isolate each arithmetic effect:

* :class:`FloatBackend` — exact float GEMM (the "Original" bars).
* :class:`QuantizedBackend` — int8 quantization with *exact* integer GEMM:
  measures pure quantization loss.
* :class:`YocoBackend` — int8 quantization with the integer GEMM executed by
  the behavioral :class:`~repro.core.engine.YocoMatmulEngine`: adds the
  analog error and the 8-bit time-domain readout on top.

Backends are stateful per named layer (weights are quantized once and their
engine tiles stay programmed — weight-stationary, as on the real chip).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from repro import seeds
from repro.analog.variation import VariationModel
from repro.core.config import IMAConfig
from repro.core.engine import YocoMatmulEngine
from repro.core.ima import IMAErrorModel
from repro.nn.quant import calibrate_activation, calibrate_weight


class MatmulBackend:
    """Interface: execute ``x @ w`` for a named layer."""

    def matmul(self, name: str, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop per-layer state (quantizers, engine tiles)."""


class FloatBackend(MatmulBackend):
    """Exact float GEMM."""

    def matmul(self, name: str, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ np.asarray(w, dtype=float)


class QuantizedBackend(MatmulBackend):
    """Dynamic int8 quantization with exact integer arithmetic."""

    def __init__(self) -> None:
        self._weight_cache: Dict[str, tuple] = {}

    def reset(self) -> None:
        self._weight_cache.clear()

    def matmul(self, name: str, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        act_q = calibrate_activation(x)
        cached = self._weight_cache.get(name)
        if cached is None or cached[0].shape != w.shape or not np.array_equal(cached[0], w):
            weight_q = calibrate_weight(w)
            w_codes = weight_q.quantize(w)
            self._weight_cache[name] = (w.copy(), weight_q, w_codes)
        else:
            _, weight_q, w_codes = cached
        x_codes = act_q.quantize(x)
        dots = self._integer_matmul(name, x_codes, w_codes, act_q.zero_point)
        return dots * act_q.scale * weight_q.scales[None, :]

    def _integer_matmul(
        self, name: str, x_codes: np.ndarray, w_codes: np.ndarray, zero_point: int
    ) -> np.ndarray:
        """Exact (x_codes - zp) @ w_codes; subclasses reroute this."""
        return ((x_codes - zero_point).astype(np.int64) @ w_codes).astype(float)


class YocoBackend(QuantizedBackend):
    """Int8 quantization with the GEMM executed on behavioral YOCO IMAs.

    Parameters
    ----------
    mode:
        Engine fidelity: ``fast`` (calibrated error injection, default),
        ``detailed`` (full charge simulation; slow) or ``ideal`` (engine
        tiling without analog error — useful to isolate readout effects).
    config / error_model / variation:
        Forwarded to each per-layer engine.
    seed:
        Root seed; per-layer engines derive independent streams.
    """

    def __init__(
        self,
        mode: str = "fast",
        config: Optional[IMAConfig] = None,
        error_model: Optional[IMAErrorModel] = None,
        variation: Optional[VariationModel] = None,
        seed: int = 0,
        readout: str = "auto-window",
    ) -> None:
        super().__init__()
        self._mode = mode
        self._config = config
        self._error_model = error_model
        self._variation = variation
        self._seed = seed
        self._readout = readout if mode == "fast" else "full"
        self._engines: Dict[str, YocoMatmulEngine] = {}

    @property
    def engines(self) -> Dict[str, YocoMatmulEngine]:
        return dict(self._engines)

    def reset(self) -> None:
        super().reset()
        self._engines.clear()

    @property
    def total_energy_pj(self) -> float:
        """Compute energy across all layers' engines."""
        return sum(engine.total_energy_pj for engine in self._engines.values())

    @property
    def total_vmm_count(self) -> int:
        return sum(engine.vmm_count for engine in self._engines.values())

    def _integer_matmul(
        self, name: str, x_codes: np.ndarray, w_codes: np.ndarray, zero_point: int
    ) -> np.ndarray:
        engine = self._engines.get(name)
        if engine is None:
            engine = YocoMatmulEngine(
                mode=self._mode,
                config=self._config,
                error_model=self._error_model,
                variation=self._variation,
                seed=seeds.named_layer(self._seed, name),
                readout=self._readout,
            )
            self._engines[name] = engine
        return engine.matmul_signed(x_codes, w_codes, x_zero_point=zero_point)


@dataclasses.dataclass
class InferenceContext:
    """Execution context threaded through ``Module.infer``.

    Attributes
    ----------
    backend:
        Where GEMMs run.
    layer_prefix:
        Dotted name scope, extended by containers so each layer gets a
        stable backend key (weight-stationary caching).
    """

    backend: MatmulBackend = dataclasses.field(default_factory=FloatBackend)
    layer_prefix: str = ""
    _counter: int = 0

    def scoped_name(self, kind: str) -> str:
        """A unique, deterministic name for the next layer of ``kind``."""
        name = f"{self.layer_prefix}{kind}{self._counter}"
        self._counter += 1
        return name

    def matmul(self, name: str, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.backend.matmul(name, x, w)

    def fresh(self) -> "InferenceContext":
        """A context with the counter reset (new forward pass, same backend)."""
        return InferenceContext(backend=self.backend, layer_prefix=self.layer_prefix)
