"""Prefill/decode disaggregation: TTFT/ITL face-off and batch-size sweep.

Two request-level studies of the autoregressive decode loop
(`repro.serve.decode`), both on the same 8-chip half-YOCO/half-ISAAC
fleet serving identical MobileBERT traffic:

* face-off — legacy serving (no decode loop: the engine cannot even
  report time-to-first-token), unified decode (every chip serves both
  phases) and prefill-decode disaggregation (prefill pinned to the YOCO
  group, decode to the ISAAC group) at equal chip count.  Disaggregation
  isolates the TTFT tail from the decode backlog; unified serving wins
  raw token throughput by decoding on every chip.  The decode rows also
  record the KV-cache overflow share the residency accounting surfaces;
* batch-size sweep — TTFT p99, inter-token-latency p99 and generated
  tokens/s as the batching cap walks 1 -> 16 under disaggregation:
  batching trades first-token latency for decode throughput.

Key numbers of full (non-smoke) runs append to
``benchmarks/BENCH_decode.json``.

Set ``REPRO_BENCH_SMOKE=1`` to run shortened horizons (the CI tier-2
smoke job); every assertion still holds, only the traces shrink.
"""

import json
import os
import pathlib

from conftest import emit

from repro.experiments.report import format_table
from repro.serve import (
    DecodeConfig,
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
    simulate_serving,
)

MODEL = "mobilebert"
FLEET = "yoco:4,isaac:4"
RPS = 6000.0
DECODE = DecodeConfig(dist="lognormal", mean_tokens=32)
#: Chip ids of the decode group under the prefill-decode placement
#: (fleet group 0 = yoco:4 is the prefill group).
DECODE_CHIPS = frozenset(range(4, 8))

#: Smoke mode shrinks every simulated horizon by this factor.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
_HORIZON_SCALE = 0.25 if SMOKE else 1.0

_RECORD_PATH = pathlib.Path(__file__).parent / "BENCH_decode.json"


def _serve(placement="replicated", decode=DECODE, max_batch=8):
    return simulate_serving(config=ServingConfig(
        workload=WorkloadConfig(
            models=(MODEL,), rps=RPS, duration_s=0.1 * _HORIZON_SCALE, seed=0,
        ),
        fleet=FleetConfig(fleet=FLEET, placement=placement),
        policy=PolicyConfig(max_batch_size=max_batch),
        decode=decode,
    ))


def _faceoff_rows():
    rows = []
    for label, placement, decode in (
        ("legacy (no decode)", "replicated", None),
        ("unified decode", "replicated", DECODE),
        ("disaggregated", "prefill-decode", DECODE),
    ):
        report, result = _serve(placement=placement, decode=decode)
        rows.append((label, report, result))
    return rows


def test_disaggregation_faceoff(benchmark):
    rows = benchmark.pedantic(_faceoff_rows, rounds=1, iterations=1)
    by = {label: (report, result) for label, report, result in rows}
    legacy, _ = by["legacy (no decode)"]
    unified, unified_res = by["unified decode"]
    disagg, disagg_res = by["disaggregated"]
    # The decode-free engine has no token loop, so it cannot report TTFT
    # or inter-token latency at all — the columns only exist with decode=.
    assert not legacy.has_decode
    assert unified.has_decode and disagg.has_decode
    u, d = unified.per_model[0], disagg.per_model[0]
    assert u.ttft_p99_ms > 0 and u.itl_p99_ms > 0
    assert d.ttft_p99_ms > 0 and d.itl_p99_ms > 0
    # Same arrivals, same chips: the prefill-side story is identical.
    assert len(unified_res.served) == len(disagg_res.served)
    # Disaggregation pins every decode iteration (and therefore every
    # request's completing chip) to the decode group.
    assert all(s.chip_id in DECODE_CHIPS for s in disagg_res.served)
    # Prefills never queue behind decode iterations, so the disaggregated
    # TTFT tail cannot be worse than unified's (same prefill hardware,
    # strictly less interference).
    assert d.ttft_p99_ms <= u.ttft_p99_ms * 1.001
    # The price: decode rides the 4-chip ISAAC group alone, while unified
    # decodes on all 8 chips — unified wins raw token throughput.
    assert unified.decode_tokens_per_s > disagg.decode_tokens_per_s
    benchmark.extra_info["unified_ttft_p99_ms"] = u.ttft_p99_ms
    benchmark.extra_info["disagg_ttft_p99_ms"] = d.ttft_p99_ms
    benchmark.extra_info["unified_tok_per_s"] = unified.decode_tokens_per_s
    benchmark.extra_info["disagg_tok_per_s"] = disagg.decode_tokens_per_s
    body = []
    for label, report, result in rows:
        if report.has_decode:
            m = report.per_model[0]
            body.append((
                label,
                f"{m.ttft_p50_ms:.3f}",
                f"{m.ttft_p99_ms:.3f}",
                f"{m.itl_p99_ms:.4f}",
                f"{report.decode_tokens_per_s:.0f}",
                f"{100 * report.kv_overflow:.1f}%",
                f"{100 * report.mean_chip_utilization:.0f}%",
            ))
        else:
            m = report.per_model[0]
            body.append((
                label, "-", "-", "-", "-", "-",
                f"{100 * report.mean_chip_utilization:.0f}%",
            ))
    emit(
        f"Prefill/decode face-off — {MODEL} @ {RPS:.0f} req/s on {FLEET}, "
        f"~{DECODE.mean_tokens} tokens/request",
        format_table(
            ("serving", "ttft p50 ms", "ttft p99 ms", "itl p99 ms", "tok/s",
             "kv spill", "mean util"),
            body,
        ),
    )
    record = {
        "bench": "decode",
        "smoke": SMOKE,
        "scenario": (
            f"{MODEL} @ {RPS:.0f} req/s on {FLEET}, lognormal decode "
            f"mean {DECODE.mean_tokens}"
        ),
        "requests": len(disagg_res.served),
        "unified_ttft_p99_ms": round(u.ttft_p99_ms, 4),
        "disagg_ttft_p99_ms": round(d.ttft_p99_ms, 4),
        "unified_itl_p99_ms": round(u.itl_p99_ms, 4),
        "disagg_itl_p99_ms": round(d.itl_p99_ms, 4),
        "unified_tok_per_s": round(unified.decode_tokens_per_s, 1),
        "disagg_tok_per_s": round(disagg.decode_tokens_per_s, 1),
        "disagg_kv_overflow": round(disagg.kv_overflow, 4),
    }
    history = []
    if _RECORD_PATH.exists():
        history = json.loads(_RECORD_PATH.read_text())
    # Smoke runs must not pollute the committed full-mode trajectory.
    if not SMOKE:
        history.append(record)
        _RECORD_PATH.write_text(json.dumps(history, indent=2) + "\n")


def _batch_sweep_rows():
    rows = []
    for max_batch in (1, 4, 8, 16):
        report, _ = _serve(placement="prefill-decode", max_batch=max_batch)
        m = report.per_model[0]
        rows.append((
            max_batch,
            m.ttft_p99_ms,
            m.itl_p99_ms,
            report.decode_tokens_per_s,
            report.mean_chip_utilization,
        ))
    return rows


def test_batch_size_trades_ttft_for_throughput(benchmark):
    """Deeper decode batches amortize each iteration across more requests:
    generated tokens/s climbs with the cap while the per-token latency
    falls (the queue in front of each iteration drains faster), and TTFT
    pays for the batching window the prefill side now waits on."""
    rows = benchmark.pedantic(_batch_sweep_rows, rounds=1, iterations=1)
    ttft = [r[1] for r in rows]
    itl = [r[2] for r in rows]
    toks = [r[3] for r in rows]
    assert toks[-1] > toks[0]
    assert itl[-1] < itl[0]
    assert ttft[0] <= ttft[-1] * 1.001
    benchmark.extra_info["tok_per_s_batch1"] = toks[0]
    benchmark.extra_info["tok_per_s_batch16"] = toks[-1]
    benchmark.extra_info["itl_p99_ms_batch1"] = itl[0]
    benchmark.extra_info["itl_p99_ms_batch16"] = itl[-1]
    emit(
        f"Decode batch-size sweep — {MODEL} @ {RPS:.0f} req/s, "
        f"disaggregated on {FLEET}",
        format_table(
            ("max batch", "ttft p99 ms", "itl p99 ms", "tok/s", "mean util"),
            [
                (b, f"{t:.3f}", f"{i:.4f}", f"{k:.0f}", f"{100 * u:.0f}%")
                for b, t, i, k, u in rows
            ],
        ),
    )
