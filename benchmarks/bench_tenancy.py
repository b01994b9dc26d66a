"""Multi-tenant serving studies (`repro.serve.tenancy`).

Three scheduler-level studies on top of the multi-tenant serving stack,
plus the start of the repo's perf trajectory:

* priority face-off — an interactive tenant sharing a saturated fleet
  with a 30x-heavier batch tenant, under all three schedulers: fifo
  makes the interactive tenant queue behind the batch backlog (p99 in
  the multi-ms regime), while strict-priority and weighted-fair cut its
  p99 by an order of magnitude at the same ~99 % utilization — and
  preemption buys a further cut by evicting in-flight batch work, at an
  explicitly accounted wasted-service cost;
* fairness-vs-utilization sweep — two identical saturating tenants under
  weighted-fair with a growing weight ratio: the observed mean-latency
  ratio tracks the weight ratio monotonically while fleet utilization
  stays pinned (fair sharing re-divides the queueing, it does not burn
  capacity);
* noisy-neighbor study — the PR's headline isolation guarantee as a
  measured table: with weighted-fair + a per-tenant token bucket, a
  tenant misbehaving at 10x its declared rate moves a protected tenant's
  p99 by percents; without the isolation machinery the same attack blows
  it up by orders of magnitude.

The throughput-record test times a reference two-tenant run and appends
``{requests/sec, p99}`` to ``benchmarks/BENCH_tenancy.json`` — the
repo's perf trajectory starts here.

Set ``REPRO_BENCH_SMOKE=1`` to run shortened horizons (the CI tier-2
smoke job); every assertion still holds, only the traces shrink.
"""

import json
import math
import os
import pathlib
import time

from conftest import emit

from repro.experiments.report import format_table
from repro.serve import (
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    Tenant,
    WorkloadConfig,
    simulate_serving,
)

MODEL = "resnet18"
SEED = 0

#: Smoke mode shrinks every simulated horizon by this factor.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
_HORIZON_SCALE = 0.25 if SMOKE else 1.0

_RECORD_PATH = pathlib.Path(__file__).parent / "BENCH_tenancy.json"


def _serve(duration_s, tenants, n_chips, scheduler, preemption=False):
    return simulate_serving(config=ServingConfig(
        workload=WorkloadConfig(
            models=(MODEL,),
            duration_s=duration_s * _HORIZON_SCALE,
            seed=SEED,
            tenants=tenants,
        ),
        fleet=FleetConfig(fleet=f"yoco:{n_chips}"),
        policy=PolicyConfig(scheduler=scheduler, preemption=preemption),
    ))


def _by_tenant(report):
    return {t.tenant: t for t in report.per_tenant}


# -- priority face-off ---------------------------------------------------------------


def _faceoff_tenants(deadline_ms=None):
    return (
        Tenant(
            "chat",
            "interactive",
            weight=4.0,
            rps=2000.0,
            deadline_ms=deadline_ms,
        ),
        Tenant("bulk", "batch", weight=1.0, rps=60000.0),
    )


def _faceoff_rows():
    rows = []
    for label, scheduler, preempt in (
        ("fifo", "fifo", False),
        ("strict-priority", "strict-priority", False),
        ("weighted-fair", "weighted-fair", False),
        ("strict-priority +preempt", "strict-priority", True),
    ):
        report, result = _serve(
            0.02,
            _faceoff_tenants(deadline_ms=0.08 if preempt else None),
            n_chips=2,
            scheduler=scheduler,
            preemption=preempt,
        )
        by = _by_tenant(report)
        rows.append(
            (
                label,
                by["chat"].p99_ms,
                by["bulk"].p99_ms,
                report.mean_chip_utilization,
                result.n_preemptions,
                result.preempted_wasted_ns * 1e-6,
            )
        )
    return rows


def test_priority_faceoff_cuts_interactive_p99(benchmark):
    """Under fifo the interactive tenant queues behind the batch tenant's
    backlog; strict-priority and weighted-fair both cut its p99 by well
    over 2x at the same utilization, and preemption (with its overhead
    and wasted service explicitly charged) cuts it again."""
    rows = benchmark.pedantic(_faceoff_rows, rounds=1, iterations=1)
    by_label = {r[0]: r for r in rows}
    fifo_p99 = by_label["fifo"][1]
    for label in ("strict-priority", "weighted-fair"):
        assert by_label[label][1] < 0.5 * fifo_p99, label
        # Prioritizing the light tenant barely moves the heavy one.
        assert by_label[label][2] < 1.5 * by_label["fifo"][2], label
        # No utilization is sacrificed for the priority.
        assert by_label[label][3] > 0.9 * by_label["fifo"][3], label
    preempt = by_label["strict-priority +preempt"]
    assert preempt[4] > 0 and preempt[5] > 0.0
    assert preempt[1] < by_label["strict-priority"][1]
    benchmark.extra_info["fifo_chat_p99_ms"] = fifo_p99
    benchmark.extra_info["priority_chat_p99_ms"] = by_label[
        "strict-priority"
    ][1]
    emit(
        f"Priority face-off — chat@2000 vs bulk@60000 req/s on yoco:2",
        format_table(
            ("scheduler", "chat p99 ms", "bulk p99 ms", "util",
             "preempts", "wasted ms"),
            [
                (n, f"{c:.3f}", f"{b:.3f}", f"{100 * u:.0f}%", p,
                 f"{w:.2f}")
                for n, c, b, u, p, w in rows
            ],
        ),
    )


# -- fairness vs utilization ---------------------------------------------------------


_WEIGHTS = (1.0, 2.0, 4.0, 8.0)


def _fairness_rows():
    rows = []
    for weight in _WEIGHTS:
        report, _ = _serve(
            0.02,
            (
                Tenant("a", "batch", weight=weight, rps=40000.0),
                Tenant("b", "batch", weight=1.0, rps=40000.0),
            ),
            n_chips=1,
            scheduler="weighted-fair",
        )
        by = _by_tenant(report)
        rows.append(
            (
                weight,
                by["a"].mean_ms,
                by["b"].mean_ms,
                by["b"].mean_ms / by["a"].mean_ms,
                report.mean_chip_utilization,
            )
        )
    return rows


def test_fairness_sweep_tracks_weights_without_burning_capacity(benchmark):
    """Two identical saturating tenants: raising one's weight shifts the
    queueing delay between them monotonically (the observed latency ratio
    grows with the weight ratio) while chip utilization stays pinned —
    weighted-fair re-divides the backlog, it does not waste capacity."""
    rows = benchmark.pedantic(_fairness_rows, rounds=1, iterations=1)
    ratios = [r[3] for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))  # monotone
    assert ratios[0] < 1.5  # equal weights ≈ equal treatment
    assert ratios[-1] > 2.0  # an 8x weight is clearly visible
    for row in rows:
        assert row[4] > 0.95  # fairness costs no utilization
    benchmark.extra_info["latency_ratio_at_8x"] = ratios[-1]
    emit(
        "Fairness vs utilization — two saturating tenants, weighted-fair",
        format_table(
            ("weight a:b", "a mean ms", "b mean ms", "latency ratio",
             "util"),
            [
                (f"{w:g}:1", f"{a:.3f}", f"{b:.3f}", f"{r:.2f}",
                 f"{100 * u:.1f}%")
                for w, a, b, r, u in rows
            ],
        ),
    )


# -- noisy neighbor ------------------------------------------------------------------


_DECLARED_RPS = 20000.0


def _noisy_run(attack_multiple, protected):
    tenants = (
        Tenant("paid", "interactive", weight=4.0, rps=2000.0),
        Tenant(
            "free",
            "batch",
            weight=1.0,
            rps=_DECLARED_RPS * attack_multiple,
            rate_limit_rps=_DECLARED_RPS if protected else None,
            rate_limit_burst=8.0,
        ),
    )
    report, result = _serve(
        0.02,
        tenants,
        n_chips=1,
        scheduler="weighted-fair" if protected else "fifo",
    )
    by = _by_tenant(report)
    return (
        by["paid"].p99_ms,
        by["paid"].goodput_rps,
        len(result.rejected_for_tenant("free")),
    )


def _noisy_rows():
    rows = []
    for label, protected in (("isolated", True), ("unprotected", False)):
        for attack, mult in (("1x", 1.0), ("10x", 10.0)):
            p99, goodput, shed = _noisy_run(mult, protected)
            rows.append((label, attack, p99, goodput, shed))
    return rows


def test_noisy_neighbor_isolation_holds_and_matters(benchmark):
    """The headline guarantee, measured: under weighted-fair + a declared-
    rate token bucket a 10x-misbehaving tenant moves the protected p99 by
    percents; take the machinery away and the same attack is a p99 blowup
    of orders of magnitude."""
    rows = benchmark.pedantic(_noisy_rows, rounds=1, iterations=1)
    by_key = {(r[0], r[1]): r for r in rows}
    iso_base = by_key[("isolated", "1x")]
    iso_attack = by_key[("isolated", "10x")]
    raw_base = by_key[("unprotected", "1x")]
    raw_attack = by_key[("unprotected", "10x")]
    ref_ms = 0.0421  # resnet18 reference latency
    assert iso_attack[2] <= 1.5 * iso_base[2] + 2.0 * ref_ms
    assert iso_attack[4] > iso_base[4]  # the bucket did the shedding
    assert raw_attack[2] > 5.0 * raw_base[2]  # the contrast
    benchmark.extra_info["isolated_p99_ratio"] = iso_attack[2] / iso_base[2]
    benchmark.extra_info["unprotected_p99_ratio"] = (
        raw_attack[2] / raw_base[2]
    )
    emit(
        "Noisy neighbor — paid@2000 vs free (declared 20000) req/s, yoco:1",
        format_table(
            ("config", "attack", "paid p99 ms", "paid goodput",
             "attacker shed"),
            [
                (c, a, f"{p:.3f}", f"{g:.0f}", s)
                for c, a, p, g, s in rows
            ],
        ),
    )


# -- perf trajectory -----------------------------------------------------------------


def _reference_run():
    return _serve(
        0.02,
        _faceoff_tenants(),
        n_chips=2,
        scheduler="weighted-fair",
    )


def test_throughput_record_starts_the_perf_trajectory(benchmark):
    """Times the reference two-tenant weighted-fair run and records the
    simulator's request throughput (simulated requests per wall-second)
    plus the interactive tenant's p99 in ``BENCH_tenancy.json``."""
    start = time.perf_counter()
    report, result = benchmark.pedantic(
        _reference_run, rounds=1, iterations=1
    )
    wall_s = time.perf_counter() - start
    assert result.n_requests > 0 and wall_s > 0.0
    chat_p99_ms = _by_tenant(report)["chat"].p99_ms
    record = {
        "bench": "tenancy",
        "smoke": SMOKE,
        "scenario": "chat@2000+bulk@60000, weighted-fair, yoco:2",
        "sim_requests": result.n_requests,
        "wall_s": round(wall_s, 4),
        "requests_per_s": round(result.n_requests / wall_s, 1),
        "chat_p99_ms": round(chat_p99_ms, 4),
    }
    history = []
    if _RECORD_PATH.exists():
        history = json.loads(_RECORD_PATH.read_text())
    # Smoke runs must not pollute the committed full-mode trajectory.
    if not SMOKE:
        history.append(record)
        _RECORD_PATH.write_text(json.dumps(history, indent=2) + "\n")
    assert math.isfinite(record["requests_per_s"])
    benchmark.extra_info.update(record)
    emit(
        "Perf trajectory — reference multi-tenant run",
        json.dumps(record, indent=2),
    )
