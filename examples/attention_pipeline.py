#!/usr/bin/env python3
"""IMC-friendly attention: the Fig. 5 dataflow running on a tile.

Demonstrates the hybrid-memory attention flow end to end:

* WQ/WK/WV pinned as *static* weights in SIMAs (ReRAM);
* per-token Q/K/V streamed into *dynamic* DIMAs (SRAM) via the crossbar;
* the token-by-token incremental softmax (flash-attention style) producing
  outputs numerically equal to standard attention;
* the tile's energy ledger showing where the picojoules went — including
  why the same flow on ReRAM-only hardware would drown in write energy;
* the Fig. 10 pipeline model quantifying the token-pipelining speedup.

Run:  python examples/attention_pipeline.py
"""

import numpy as np

from repro import constants
from repro.arch.pipeline import AttentionGeometry, AttentionPipelineModel
from repro.core.tile import Tile
from repro.nn.attention import standard_attention, yoco_incremental_attention_step

DIM = 64
N_TOKENS = 12


def main() -> None:
    rng = np.random.default_rng(0)
    tile = Tile()

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
        # Crossbar stage: move q/k/v into the DIMAs (billed to the ledger).
        tile.crossbar_transfer(3 * DIM * 8)
        # SFU + DIMA stages: incremental flash-style update.
        state = yoco_incremental_attention_step(state, q_new, k_new, v_new, causal=True)
        tile.sfu.exp(np.zeros(t + 1))  # bill the exp of the fresh score row
        tile.edram_write((t + 1) * 8)  # running normalizer/max spill
    incremental = state.output()

    q, k, v = tokens @ wq, tokens @ wk, tokens @ wv
    reference = standard_attention(q, k, v, causal=True)
    print(f"tokens processed:        {N_TOKENS}")
    print(f"max |incremental - standard attention|: "
          f"{np.abs(incremental - reference).max():.2e}  (exact recurrence)")

    print("\n=== Tile energy ledger for the attention pass ===")
    print(tile.ledger.breakdown())

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
