"""Engine hot-path scaling record (`repro.serve.engine`).

Builds a diurnal open-loop trace at two scales (100k and ~1M
requests), then times simulation plus ``summarize`` over the prebuilt
trace — retained mode and streaming (``stream_metrics=``) mode — and
appends the measured simulated requests per wall-second to
``benchmarks/BENCH_engine_scale.json`` (the same trajectory format as
``BENCH_tenancy.json``).  Trace generation is timed on its own
(``gen s``) and folded into a generation-included end-to-end column
(``e2e s`` = generation + streaming simulation + ``summarize``), the
figure the ROADMAP's < 1.5 s target for one million requests refers to.

The seed engine (commit f70cd06, before the indexed-ready-queue /
merged-arrival-cursor / single-slot fast-path work) sustained 77,485
simulated requests per wall-second engine-only and 68,919 including
``summarize`` on the exact 1M-request scenario below; those constants
anchor the >= 10x acceptance assertion.  The refactored engine
measures ~1.2M req/s on the same scenario (~17x).

Set ``REPRO_BENCH_SMOKE=1`` to run shortened horizons (the CI tier-2
smoke job); the speedup assertion is skipped there — tiny traces
measure fixed overhead, not the hot path.
"""

import json
import math
import os
import pathlib
import time

from conftest import emit

from repro.experiments.report import format_table
from repro.models.zoo import get_workload
from repro.serve import StreamingMetrics, diurnal_trace, summarize
from repro.serve.batching import BatchingPolicy
from repro.serve.cluster import Cluster
from repro.serve.engine import ServingEngine

MODEL = "resnet18"
SEED = 0
RPS = 100_000.0
N_CHIPS = 8

#: Seed-engine throughput on the 1M scenario (simulated req / wall s,
#: including summarize), measured at commit f70cd06.  The acceptance
#: bar is 10x this.
SEED_PIPELINE_RPS = 68_919.0

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
_HORIZON_SCALE = 0.02 if SMOKE else 1.0

#: (label, duration_s at RPS offered load) — ~100k and ~1M requests.
SCENARIOS = (("100k", 1.0), ("1M", 10.0))

_RECORD_PATH = pathlib.Path(__file__).parent / "BENCH_engine_scale.json"


def _timed_run(cluster, policy, trace, stream=None):
    """Simulate + summarize the prebuilt trace; returns (report, wall_s)."""
    engine = ServingEngine(cluster, policy)
    start = time.perf_counter()
    result = engine.run(trace, stream=stream)
    report = summarize(result, cluster)
    return report, time.perf_counter() - start


def _scale_rows():
    cluster = Cluster([get_workload(MODEL)], fleet=f"yoco:{N_CHIPS}")
    policy = BatchingPolicy(max_batch_size=8, window_ns=200_000.0)
    rows = []
    for label, duration_s in SCENARIOS:
        start = time.perf_counter()
        trace = diurnal_trace(
            MODEL,
            rps=RPS,
            duration_s=duration_s * _HORIZON_SCALE,
            seed=SEED,
        )
        trace_s = time.perf_counter() - start
        n = len(trace)
        retained_report, retained_s = _timed_run(cluster, policy, trace)
        stream = StreamingMetrics()
        stream_report, stream_s = _timed_run(
            cluster, policy, trace, stream=stream
        )
        assert stream.n_served == n  # satellite: nothing silently dropped
        assert (
            stream_report.per_model[0].p99_ms
            == retained_report.per_model[0].p99_ms
        )
        rows.append(
            (
                label,
                n,
                trace_s,
                retained_s,
                n / retained_s,
                stream_s,
                n / stream_s,
                stream_report.per_model[0].p99_ms,
                trace_s + stream_s,
            )
        )
    return rows


def test_engine_scale_record(benchmark):
    """Records the perf trajectory of the serving hot path and asserts
    the headline acceptance bar: streaming simulation + summarize over
    the million-request diurnal trace sustains at least 10x the seed
    engine's simulated-requests/sec."""
    rows = benchmark.pedantic(_scale_rows, rounds=1, iterations=1)
    history = []
    if _RECORD_PATH.exists():
        history = json.loads(_RECORD_PATH.read_text())
    for label, n, trace_s, ret_s, ret_rps, stream_s, stream_rps, p99, e2e_s in (
        rows
    ):
        assert n > 0 and math.isfinite(stream_rps)
        record = {
            "bench": "engine_scale",
            "smoke": SMOKE,
            "scenario": f"diurnal {MODEL} @ {RPS:.0f} req/s, "
            f"yoco:{N_CHIPS}, {label} requests",
            "sim_requests": n,
            "wall_s": round(stream_s, 4),
            "requests_per_s": round(stream_rps, 1),
            "retained_wall_s": round(ret_s, 4),
            "retained_requests_per_s": round(ret_rps, 1),
            "trace_gen_wall_s": round(trace_s, 4),
            "end_to_end_wall_s": round(e2e_s, 4),
            "p99_ms": round(p99, 4),
        }
        # Smoke runs must not pollute the committed full-mode trajectory.
        if not SMOKE:
            history.append(record)
        benchmark.extra_info[label] = record
    if not SMOKE:
        _RECORD_PATH.write_text(json.dumps(history, indent=2) + "\n")
        # The acceptance bar, on the real 1M scenario only: smoke traces
        # are ~2k requests and measure startup overhead, not the engine.
        million = {r[0]: r for r in rows}["1M"]
        assert million[6] >= 10.0 * SEED_PIPELINE_RPS, (
            f"streaming pipeline at {million[6]:.0f} req/s is below 10x "
            f"the seed engine's {SEED_PIPELINE_RPS:.0f} req/s"
        )
    emit(
        f"Engine scaling — diurnal {MODEL} @ 100k req/s on yoco:{N_CHIPS}",
        format_table(
            ("trace", "requests", "gen s", "retained s", "retained req/s",
             "stream s", "stream req/s", "e2e s", "p99 ms"),
            [
                (label, n, f"{ts:.2f}", f"{rs:.2f}", f"{rr:.0f}",
                 f"{ss:.2f}", f"{sr:.0f}", f"{e2e:.2f}", f"{p99:.4f}")
                for label, n, ts, rs, rr, ss, sr, p99, e2e in rows
            ],
        ),
    )
