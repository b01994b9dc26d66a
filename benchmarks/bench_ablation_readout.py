"""Ablation: readout range calibration (the tile quantization circuit).

Quantifies what the per-column programmable TDC windows buy: GEMM error
with full-scale readout vs auto-calibrated windows, on a realistic signed
layer shape.  This is the design choice that lets 8-bit readout survive
network inference (see ``YocoMatmulEngine._calibrate_window`` in
``repro/core/engine.py``).
"""

import numpy as np
from conftest import emit

from repro.core import YocoMatmulEngine


def _gemm_error(readout: str, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, (32, 512))
    w = rng.integers(-128, 128, (512, 64))
    exact = (x.astype(np.int64) @ w).astype(float)
    engine = YocoMatmulEngine(mode="fast", seed=seed, readout=readout)
    estimate = engine.matmul_signed(x, w)
    return float(np.abs(estimate - exact).max() / np.abs(exact).max())


def test_readout_window_ablation(benchmark):
    err_window = benchmark.pedantic(
        _gemm_error, args=("auto-window",), rounds=1, iterations=1
    )
    err_full = _gemm_error("full")
    benchmark.extra_info["rel_error_full"] = err_full
    benchmark.extra_info["rel_error_window"] = err_window
    assert err_window < err_full / 3
    emit(
        "Ablation — readout range calibration",
        f"full-scale readout:  max rel GEMM error = {err_full:.3f}\n"
        f"auto-window readout: max rel GEMM error = {err_window:.3f}\n"
        f"improvement: {err_full / err_window:.1f}x",
    )
