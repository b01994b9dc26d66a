#!/usr/bin/env python3
"""IMC-friendly attention: the Fig. 5 dataflow on YOCO.

Demonstrates the hybrid-memory attention flow end to end:

* WQ/WK/WV pinned as *static* weights in SIMAs (ReRAM);
* per-token Q/K/V streamed into *dynamic* DIMAs (SRAM);
* the token-by-token incremental softmax (flash-attention style) producing
  outputs numerically equal to standard attention;
* the architecture simulator's per-layer energy of the pass's three GEMMs
  (the prices Fig. 8 uses) — and why the same flow on ReRAM-only hardware
  would drown in write energy;
* the Fig. 10 pipeline model quantifying the token-pipelining speedup.

Run:  python examples/attention_pipeline.py
"""

import numpy as np

from repro import constants
from repro.arch.pipeline import AttentionGeometry, AttentionPipelineModel
from repro.arch.simulator import ArchitectureSimulator
from repro.models.workload import GemmShape, LayerKind, LayerSpec
from repro.nn.attention import standard_attention, yoco_incremental_attention_step

DIM = 64
N_TOKENS = 12


def main() -> None:
    rng = np.random.default_rng(0)

    # Static projection weights live in SIMAs (programmed once).
    wq = rng.normal(0, 0.3, (DIM, DIM))
    wk = rng.normal(0, 0.3, (DIM, DIM))
    wv = rng.normal(0, 0.3, (DIM, DIM))
    tokens = rng.normal(0, 1.0, (N_TOKENS, DIM))

    print("=== Token-by-token incremental attention (Fig. 5 flow) ===")
    state = None
    for t in range(N_TOKENS):
        # SIMA stage: project the embedded token (float math here; the
        # quantized path is exercised in examples/accuracy_comparison.py).
        q_new, k_new, v_new = tokens[t] @ wq, tokens[t] @ wk, tokens[t] @ wv
        # SFU + DIMA stages: incremental flash-style update.
        state = yoco_incremental_attention_step(state, q_new, k_new, v_new, causal=True)
    incremental = state.output()

    q, k, v = tokens @ wq, tokens @ wk, tokens @ wv
    reference = standard_attention(q, k, v, causal=True)
    print(f"tokens processed:        {N_TOKENS}")
    print(f"max |incremental - standard attention|: "
          f"{np.abs(incremental - reference).max():.2e}  (exact recurrence)")

    print("\n=== Simulator's per-layer energy for the attention pass ===")
    layers = (
        LayerSpec("qkv_projection", LayerKind.PROJECTION,
                  GemmShape(N_TOKENS, DIM, 3 * DIM)),
        LayerSpec("scores (Q K^T)", LayerKind.ATTENTION_SCORE,
                  GemmShape(N_TOKENS, DIM, N_TOKENS), static_weights=False),
        LayerSpec("context (A V)", LayerKind.ATTENTION_CONTEXT,
                  GemmShape(N_TOKENS, N_TOKENS, DIM), static_weights=False),
    )
    simulator = ArchitectureSimulator()
    print(f"{'layer':16s} {'VMMs':>5s} {'compute pJ':>11s} "
          f"{'writes pJ':>10s} {'movement pJ':>12s}")
    total = 0.0
    for spec in layers:
        cost = simulator.simulate_layer(spec)
        total += cost.energy_pj
        print(f"{spec.name:16s} {cost.vmm_count:5d} {cost.compute_energy_pj:11.1f} "
              f"{cost.weight_write_energy_pj:10.1f} {cost.data_movement_energy_pj:12.1f}")
    print(f"total energy of the pass: {total:.1f} pJ")

    print("\n=== The hybrid-memory argument ===")
    kv_bits = N_TOKENS * DIM * 8 * 2
    sram_pj = kv_bits * constants.SRAM_WRITE_PJ_PER_BIT
    reram_pj = kv_bits * constants.RERAM_WRITE_PJ_PER_BIT
    print(f"K/V written per pass: {kv_bits} bits")
    print(f"  SRAM DIMA writes (hybrid YOCO): {sram_pj:10.1f} pJ")
    print(f"  ReRAM writes (single-memory):   {reram_pj:10.1f} pJ "
          f"({reram_pj / sram_pj:.0f}x worse)")

    print("\n=== Fig. 10: what token pipelining buys ===")
    model = AttentionPipelineModel()
    geom = AttentionGeometry("demo", dim=DIM, kv_dim=DIM, n_heads=4,
                             seq_len=N_TOKENS, causal=True)
    result = model.evaluate(geom)
    print(f"layer-wise: {result.sequential_ns:8.1f} ns")
    print(f"pipelined:  {result.pipelined_ns:8.1f} ns")
    print(f"speedup:    {result.speedup:.2f}x (paper band: 1.8x - 3.7x)")


if __name__ == "__main__":
    main()
