"""Closed-loop clients and admission control (`repro.serve.clients` / `.admission`).

Three request-level studies on top of the closed-loop serving stack:

* concurrency sweep — a growing closed-loop population on an all-YOCO
  fleet walks throughput up to the saturation knee: the empirical knee
  (where goodput peaks before collapsing to queueing) must agree with
  the analytic ``hosts * (1 + think/service)`` estimate from
  :func:`repro.serve.clients.estimated_saturation_clients`, which is the
  capacity answer — concurrent users at the SLO — open-loop traces
  cannot produce;
* admission face-off — the same overloaded open-loop trace on a
  heterogeneous yoco+isaac fleet under all four admission policies:
  every shedding policy must shed, lower the accepted-request p99 *and*
  raise goodput versus accept-all (under overload, rejecting work beats
  queueing it);
* overload recovery — a bursty trace at ~2x capacity: with accept-all
  the backlog drains long after the last arrival, while SLO-aware
  shedding (driven by the per-(model, chip-group) cost tables) keeps the
  drain tail an order of magnitude shorter; plus the closed-loop retry
  variant, where retry-with-backoff converts most hard drops into
  eventually-served requests at an explicit tail-latency cost (latency
  is client-perceived: backoff waits count against the retried request).

Set ``REPRO_BENCH_SMOKE=1`` to run shortened horizons (the CI tier-2
smoke job); every assertion still holds, only the traces shrink.
"""

import os

from conftest import emit

from repro.experiments.report import format_table
from repro.models.zoo import get_workload
from repro.serve import (
    Cluster,
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
    estimated_saturation_clients,
    simulate_serving,
)

MODEL = "resnet18"
SEED = 0
THINK_MS = 1.0

#: Smoke mode shrinks every simulated horizon by this factor.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
_HORIZON_SCALE = 0.25 if SMOKE else 1.0


def _serve(duration_s, fleet, policy=PolicyConfig(), **workload):
    config = ServingConfig(
        workload=WorkloadConfig(
            models=(MODEL,),
            duration_s=duration_s * _HORIZON_SCALE,
            seed=SEED,
            **workload,
        ),
        fleet=fleet,
        policy=policy,
    )
    return simulate_serving(config=config)


def _sweep_rows():
    rows = []
    for n_clients in (2, 4, 8, 16, 32, 64, 128, 256):
        report, result = _serve(
            0.05,
            FleetConfig(fleet="yoco:4"),
            clients=n_clients,
            think_time_ms=THINK_MS,
        )
        rows.append(
            (
                n_clients,
                report.throughput_rps,
                report.goodput_rps,
                report.per_model[0].p99_ms if report.per_model else 0.0,
                report.mean_chip_utilization,
            )
        )
    return rows


def test_concurrency_sweep_finds_the_saturation_knee(benchmark):
    """Closed-loop throughput rises with the population until the chips
    saturate; goodput peaks at a concurrency matching the analytic knee
    estimate, then collapses as every extra session only deepens queues."""
    rows = benchmark.pedantic(_sweep_rows, rounds=1, iterations=1)
    cluster = Cluster([get_workload(MODEL)], fleet="yoco:4")
    knee_estimate = estimated_saturation_clients(
        cluster, think_time_ms=THINK_MS
    )
    throughputs = [r[1] for r in rows]
    for fewer, more in zip(throughputs, throughputs[1:]):
        assert more >= fewer * (1 - 0.02)  # closed loop never loses offered
    peak = max(throughputs)
    low_concurrency = [r for r in rows if r[0] <= knee_estimate / 4]
    assert low_concurrency and all(
        r[1] < 0.6 * peak for r in low_concurrency
    )  # well below the knee the loop is think-limited, not chip-limited
    saturation_n = max(rows, key=lambda r: r[2])[0]  # goodput argmax
    assert knee_estimate / 2 <= saturation_n <= 4 * knee_estimate
    over = [r for r in rows if r[0] > saturation_n]
    assert all(r[2] < 0.2 * max(x[2] for x in rows) for r in over)
    benchmark.extra_info["knee_estimate"] = knee_estimate
    benchmark.extra_info["saturation_clients"] = saturation_n
    benchmark.extra_info["peak_throughput_rps"] = peak
    emit(
        f"Concurrency sweep — {MODEL} closed-loop on yoco:4, "
        f"think {THINK_MS:g} ms (analytic knee ~{knee_estimate:.0f} clients)",
        format_table(
            ("clients", "throughput req/s", "goodput req/s", "p99 ms",
             "mean util"),
            [
                (n, f"{t:.0f}", f"{g:.0f}", f"{p:.3f}", f"{100 * u:.0f}%")
                for n, t, g, p, u in rows
            ],
        ),
    )


_FACEOFF_POLICIES = (
    None,
    "queue-cap:32",
    "token-bucket:40000:16",
    "slo-aware",
)


def _faceoff_rows():
    rows = []
    for admission in _FACEOFF_POLICIES:
        report, result = _serve(
            0.05,
            FleetConfig(fleet="yoco:2,isaac:2"),
            PolicyConfig(admission=admission),
            rps=100000.0,
        )
        rows.append(
            (
                admission or "accept-all",
                report.goodput_rps,
                report.per_model[0].p99_ms,
                result.rejection_rate,
                result.makespan_ns * 1e-6,
            )
        )
    return rows


def test_admission_faceoff_sheds_its_way_to_better_goodput(benchmark):
    """On an overloaded heterogeneous fleet every shedding policy rejects
    real work — and is rewarded for it: lower accepted-request p99 and
    more in-SLO goodput than accept-all, which queues itself to death."""
    rows = benchmark.pedantic(_faceoff_rows, rounds=1, iterations=1)
    accept_all = rows[0]
    for name, goodput, p99, shed, _ in rows[1:]:
        assert 0.0 < shed < 1.0, name
        assert p99 < accept_all[2], name
        assert goodput >= accept_all[1], name
    # The rate limiter pinned below fleet capacity keeps queues shallow
    # enough to hold the SLO for most of what it admits.
    by_name = {r[0]: r for r in rows}
    assert by_name["token-bucket:40000:16"][1] == max(r[1] for r in rows)
    benchmark.extra_info["goodput_accept_all"] = accept_all[1]
    benchmark.extra_info["goodput_best"] = max(r[1] for r in rows)
    emit(
        f"Admission face-off — {MODEL} @ 100000 req/s on yoco:2,isaac:2",
        format_table(
            ("admission", "goodput req/s", "p99 ms", "shed", "makespan ms"),
            [
                (n, f"{g:.0f}", f"{p:.3f}", f"{100 * s:.1f}%", f"{m:.1f}")
                for n, g, p, s, m in rows
            ],
        ),
    )


def _recovery_rows():
    horizon_s = 0.05 * _HORIZON_SCALE
    rows = []
    for admission in (None, "slo-aware"):
        report, result = simulate_serving(config=ServingConfig(
            workload=WorkloadConfig(
                models=(MODEL,), rps=180000.0, duration_s=horizon_s,
                trace_kind="bursty", seed=SEED,
            ),
            fleet=FleetConfig(fleet="yoco:4"),
            policy=PolicyConfig(admission=admission),
        ))
        drain_ms = (result.makespan_ns - horizon_s * 1e9) * 1e-6
        rows.append(
            (
                admission or "accept-all",
                report.goodput_rps,
                report.per_model[0].p99_ms,
                result.rejection_rate,
                drain_ms,
            )
        )
    return rows


def test_overload_recovery_drains_an_order_of_magnitude_faster(benchmark):
    """A bursty trace at ~2x capacity: accept-all keeps serving long after
    the last arrival (the backlog is the outage), while SLO-aware shedding
    bounds the drain tail and keeps the accepted requests inside a usable
    latency envelope."""
    rows = benchmark.pedantic(_recovery_rows, rounds=1, iterations=1)
    (_, goodput_full, p99_full, _, drain_full), (
        _,
        goodput_shed,
        p99_shed,
        shed,
        drain_shed,
    ) = rows
    assert drain_full > 0.0 and 0.0 < shed < 1.0
    assert drain_shed < 0.3 * drain_full
    assert p99_shed < p99_full
    assert goodput_shed > goodput_full
    benchmark.extra_info["drain_ms_accept_all"] = drain_full
    benchmark.extra_info["drain_ms_slo_aware"] = drain_shed
    emit(
        f"Overload recovery — {MODEL} bursty @ 180000 req/s on yoco:4",
        format_table(
            ("admission", "goodput req/s", "p99 ms", "shed", "drain ms"),
            [
                (n, f"{g:.0f}", f"{p:.3f}", f"{100 * s:.1f}%", f"{d:.2f}")
                for n, g, p, s, d in rows
            ],
        ),
    )


def _retry_rows():
    rows = []
    for admission, retries in ((None, None), ("queue-cap:48", None),
                               ("queue-cap:48", 3)):
        report, result = _serve(
            0.05,
            FleetConfig(fleet="yoco:4"),
            PolicyConfig(admission=admission),
            clients=256,
            think_time_ms=THINK_MS,
            retry=retries,
        )
        rows.append(
            (
                f"{admission or 'accept-all'}"
                + (f" +{retries} retries" if retries else ""),
                report.goodput_rps,
                report.per_model[0].p99_ms,
                result.rejection_rate,
                result.n_retries,
            )
        )
    return rows


def test_retry_with_backoff_recovers_most_drops(benchmark):
    """Closed-loop overload behind a queue cap: retry-with-backoff turns
    most hard drops into eventually-served requests (the rejection rate
    collapses) — and pays for it in tail latency, because latency is
    client-perceived: a retried request keeps its original arrival stamp,
    so its rejection waits and backoff delay count against its p99."""
    rows = benchmark.pedantic(_retry_rows, rounds=1, iterations=1)
    (_, _, p99_bare, _, _), (_, _, p99_drop, shed_drop, retries_drop), (
        _,
        _,
        p99_retry,
        shed_retry,
        n_retries,
    ) = rows
    assert retries_drop == 0 and n_retries > 0
    assert 0.0 < shed_retry < shed_drop < 1.0
    assert p99_drop < p99_bare  # shedding alone bounds the accepted tail
    assert p99_retry > p99_drop  # retries buy completions with tail latency
    benchmark.extra_info["rejection_rate_no_retry"] = shed_drop
    benchmark.extra_info["rejection_rate_with_retry"] = shed_retry
    emit(
        f"Retry-with-backoff — {MODEL} closed-loop, 256 clients on yoco:4",
        format_table(
            ("policy", "goodput req/s", "p99 ms", "dropped", "retries"),
            [
                (n, f"{g:.0f}", f"{p:.3f}", f"{100 * s:.1f}%", r)
                for n, g, p, s, r in rows
            ],
        ),
    )
