"""Observability overhead record (`repro.serve.observe`).

Replays ``bench_engine_scale``'s million-request diurnal scenario three
ways over the same prebuilt trace — streaming mode with no event log
(the hot loops take one dead ``if log is not None`` branch per event
site and nothing else), retained mode (the comparison baseline the
acceptance bar is phrased against), and streaming mode with an event
log rendering a full JSONL lifecycle trace — and, when the acceptance
bars below hold, appends wall times, simulated requests per wall-second
and the measured trace bytes/request to ``benchmarks/BENCH_observe.json``
(a failing run leaves no record).

Acceptance (full mode only; smoke traces measure startup, not the hot
path): full tracing must stay under a 2.5x slowdown relative to the
*retained* run, and the unlogged streaming run must stay within noise
of the untraced engine's throughput — both runs are measured here back
to back, so the noise bound is a direct ratio, not a stale constant.

Set ``REPRO_BENCH_SMOKE=1`` to run shortened horizons (the CI tier-2
smoke job).
"""

import json
import math
import os
import pathlib
import tempfile
import time

from conftest import emit

from repro.experiments.report import format_table
from repro.models.zoo import get_workload
from repro.serve import (
    EventLog,
    JsonlTraceSink,
    StreamingMetrics,
    diurnal_trace,
    summarize,
)
from repro.serve.batching import BatchingPolicy
from repro.serve.cluster import Cluster
from repro.serve.engine import ServingEngine

MODEL = "resnet18"
SEED = 0
RPS = 100_000.0
N_CHIPS = 8
DURATION_S = 10.0  # ~1M requests at RPS

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
_HORIZON_SCALE = 0.02 if SMOKE else 1.0

#: Full tracing may cost at most this multiple of the retained run.
MAX_TRACED_SLOWDOWN = 2.5
#: Unlogged streaming may lose at most this fraction vs retained
#: streaming throughput — the "within noise" acceptance bound.
MAX_OFF_OVERHEAD = 0.15

_RECORD_PATH = pathlib.Path(__file__).parent / "BENCH_observe.json"


def _timed_run(cluster, policy, trace, stream=False, log=None):
    engine = ServingEngine(cluster, policy)
    sm = StreamingMetrics() if stream else None
    start = time.perf_counter()
    result = engine.run(trace, stream=sm, log=log)
    report = summarize(result, cluster)
    return report, time.perf_counter() - start


def _observe_rows():
    cluster = Cluster([get_workload(MODEL)], fleet=f"yoco:{N_CHIPS}")
    policy = BatchingPolicy(max_batch_size=8, window_ns=200_000.0)
    trace = tuple(
        diurnal_trace(
            MODEL, rps=RPS, duration_s=DURATION_S * _HORIZON_SCALE, seed=SEED
        )
    )
    n = len(trace)
    retained_report, retained_s = _timed_run(cluster, policy, trace)
    off_report, off_s = _timed_run(cluster, policy, trace, stream=True)
    with tempfile.TemporaryDirectory() as tmp:
        sink = JsonlTraceSink(str(pathlib.Path(tmp) / "trace.jsonl"))
        traced_report, traced_s = _timed_run(
            cluster, policy, trace, stream=True, log=EventLog([sink])
        )
    # The log is a pass-through: every mode reports identical p99.
    p99 = retained_report.per_model[0].p99_ms
    assert off_report.per_model[0].p99_ms == p99
    assert traced_report.per_model[0].p99_ms == p99
    return [
        (
            n,
            retained_s,
            off_s,
            traced_s,
            sink.n_events,
            sink.bytes_written,
            p99,
        )
    ]


def test_observe_overhead_record(benchmark):
    """Records tracing overhead on the million-request scenario and
    asserts the acceptance bars: < 2.5x retained-mode slowdown with full
    JSONL tracing, ~0 overhead with no event log."""
    rows = benchmark.pedantic(_observe_rows, rounds=1, iterations=1)
    ((n, retained_s, off_s, traced_s, n_events, n_bytes, p99),) = rows
    assert n > 0 and math.isfinite(traced_s)
    record = {
        "bench": "observe",
        "smoke": SMOKE,
        "scenario": f"diurnal {MODEL} @ {RPS:.0f} req/s, yoco:{N_CHIPS}, "
        f"{n} requests",
        "sim_requests": n,
        "retained_wall_s": round(retained_s, 4),
        "stream_off_wall_s": round(off_s, 4),
        "stream_traced_wall_s": round(traced_s, 4),
        "traced_slowdown_vs_retained": round(traced_s / retained_s, 3),
        "off_overhead_vs_retained": round(off_s / retained_s - 1.0, 3),
        "trace_events": n_events,
        "trace_bytes": n_bytes,
        "trace_bytes_per_request": round(n_bytes / n, 1),
        "p99_ms": round(p99, 4),
    }
    benchmark.extra_info["observe"] = record
    if not SMOKE:
        # The bars first: only a passing run leaves a record.
        assert traced_s <= MAX_TRACED_SLOWDOWN * retained_s, (
            f"full tracing at {traced_s / retained_s:.2f}x retained is over "
            f"the {MAX_TRACED_SLOWDOWN}x budget"
        )
        assert off_s <= (1.0 + MAX_OFF_OVERHEAD) * retained_s, (
            f"unlogged streaming at {off_s / retained_s:.2f}x retained "
            f"is not within noise: the dead log branches must cost nothing"
        )
        history = []
        if _RECORD_PATH.exists():
            history = json.loads(_RECORD_PATH.read_text())
        history.append(record)
        _RECORD_PATH.write_text(json.dumps(history, indent=2) + "\n")
    emit(
        f"Observability overhead — diurnal {MODEL} @ {RPS:.0f} req/s on "
        f"yoco:{N_CHIPS}, {n} requests",
        format_table(
            ("mode", "wall s", "req/s", "vs retained"),
            [
                ("retained, no log", f"{retained_s:.2f}",
                 f"{n / retained_s:.0f}", "1.00x"),
                ("streaming, no log", f"{off_s:.2f}",
                 f"{n / off_s:.0f}", f"{off_s / retained_s:.2f}x"),
                ("streaming + JSONL trace", f"{traced_s:.2f}",
                 f"{n / traced_s:.0f}", f"{traced_s / retained_s:.2f}x"),
            ],
        )
        + f"\ntrace: {n_events} events, {n_bytes / n:.0f} bytes/request",
    )
