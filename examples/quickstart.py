#!/usr/bin/env python3
"""Quickstart: one VMM through YOCO, from charge sharing to digital codes.

Walks the full stack at three levels of detail:

1. a single in-charge computing array (the 4-phase charge-sharing VMM),
2. a full detailed IMA (8x8 arrays + time-domain accumulation + TDC),
3. the tiled GEMM engine with int8 zero-point algebra,

printing the headline circuit metrics the paper reports along the way.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import constants
from repro.core import DetailedIMA, InChargeArray, YocoMatmulEngine


def main() -> None:
    rng = np.random.default_rng(0)

    # --- Level 1: one 128x256 array, four charge-sharing phases -------------
    print("=== In-charge computing array (128 inputs x 32 outputs) ===")
    array = InChargeArray(seed=0)
    weights = rng.integers(0, 256, (128, 32))
    x = rng.integers(0, 256, 128)
    array.program_weights(weights)
    diag = array.vmm_diagnostics(x)
    ideal = array.ideal_vmm_voltages(x)
    worst = np.abs(diag.mac_voltages - ideal).max() / array.full_scale_volt
    print(f"input conversion voltages (first 4 rows): "
          f"{np.round(diag.input_voltages[:4], 4)} V")
    print(f"MAC voltages (first 4 CBs):               "
          f"{np.round(diag.mac_voltages[:4], 4)} V")
    print(f"max analog error: {100 * worst:.3f} % of full scale "
          f"(paper: < 0.68 %)")
    print(f"array energy for this VMM: {array.energy_pj_per_vmm(x):.1f} pJ\n")

    # --- Level 2: a full IMA (1024x256 VMM in one shot) ----------------------
    print("=== Detailed IMA (1024x256 8-bit VMM) ===")
    ima = DetailedIMA(seed=1)
    big_weights = rng.integers(0, 256, (1024, 256))
    big_x = rng.integers(0, 256, 1024)
    ima.program_weights(big_weights)
    codes = ima.vmm(big_x)
    errors = codes - ima.ideal_codes(big_x)
    cfg = ima.config
    print(f"output codes (first 8): {codes[:8]}")
    print(f"end-to-end code error: max {np.abs(errors).max():.0f} "
          f"({100 * np.abs(errors).max() / 256:.2f} % FS; paper < 0.98 %)")
    print(f"energy: {cfg.vmm_energy_pj / 1e3:.3f} nJ/VMM, "
          f"latency: {cfg.vmm_latency_ns:.1f} ns")
    print(f"=> {cfg.energy_efficiency_tops_per_watt:.1f} TOPS/W, "
          f"{cfg.throughput_tops:.1f} TOPS  (paper: 123.8 TOPS/W, 34.9 TOPS)\n")

    # --- Level 3: arbitrary int8 GEMM through the engine ----------------------
    print("=== Tiled signed GEMM on IMA grain ===")
    engine = YocoMatmulEngine(mode="fast", seed=2, readout="auto-window")
    a = rng.integers(0, 256, (16, 3000))  # uint8 activations
    w = rng.integers(-128, 128, (3000, 500))  # int8 weights
    estimate = engine.matmul_signed(a, w)
    exact = (a.astype(np.int64) @ w).astype(float)
    rel = np.abs(estimate - exact).max() / np.abs(exact).max()
    print(f"GEMM (16x3000) @ (3000x500): max relative error {100 * rel:.2f} %")
    print(f"IMA-grain VMMs issued: {engine.vmm_count}")
    print(f"compute energy: {engine.total_energy_pj / 1e3:.1f} nJ "
          f"(power-gating aware)")
    print(f"LSB of the analog readout: {constants.LSB_VOLT * 1e3:.2f} mV")


if __name__ == "__main__":
    main()
