"""Elastic fleets: autoscaling cost vs static peak provisioning.

Three studies on the serving simulator's elastic layer:

* equal-SLO cost — a diurnal trace served by the full 8-chip fleet vs
  an elastic 1..8 band: both must meet the same p99 SLO, and the
  elastic run must bill measurably fewer chip-seconds (the headline
  autoscaling claim);
* provisioning-delay sweep — the latency price of slower capacity:
  p99 degrades as the provisioning delay grows while the chip-time
  bill stays roughly flat;
* follow-the-sun — three regions with staggered diurnal peaks and
  spill-over, static vs per-region elastic fleets: the elastic
  fleet-of-fleets serves the same requests for fewer chip-seconds.

Set ``REPRO_BENCH_SMOKE=1`` to run shortened horizons (the CI tier-2
smoke job); every assertion still holds, only the traces shrink.
"""

import os

from conftest import emit

from repro.experiments.report import format_table
from repro.serve import (
    ElasticConfig,
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
    simulate_regions,
    simulate_serving,
)

MODEL = "resnet18"
CHIPS = 8
RPS = 60000.0
SLO_MS = 2.5
ELASTIC = ElasticConfig(min_chips=1, max_chips=CHIPS, provision_delay_ms=2.0)

#: Smoke mode shrinks every simulated horizon by this factor.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
_HORIZON_SCALE = 0.25 if SMOKE else 1.0


def _horizon(duration_s: float) -> float:
    return duration_s * _HORIZON_SCALE


def _serve(elastic=None):
    return simulate_serving(
        config=ServingConfig(
            workload=WorkloadConfig(
                models=(MODEL,),
                rps=RPS,
                duration_s=_horizon(0.1),
                trace_kind="diurnal",
                seed=0,
            ),
            fleet=FleetConfig(fleet=f"yoco:{CHIPS}", elastic=elastic),
            policy=PolicyConfig(slo_ms=SLO_MS),
        )
    )


def _static_vs_elastic():
    static_report, static_result = _serve()
    elastic_report, elastic_result = _serve(elastic=ELASTIC)
    return static_report, static_result, elastic_report, elastic_result


def test_elastic_vs_static_peak(benchmark):
    static_report, static_result, elastic_report, elastic_result = (
        benchmark.pedantic(_static_vs_elastic, rounds=1, iterations=1)
    )
    et = elastic_result.elastic
    static_chip_s = CHIPS * static_result.makespan_ns * 1e-9
    # Same request set, same SLO met on both fleets...
    assert elastic_report.n_requests == static_report.n_requests
    assert static_report.per_model[0].p99_ms <= SLO_MS
    assert elastic_report.per_model[0].p99_ms <= SLO_MS
    assert elastic_report.slo_attainment >= 0.99
    # ...for measurably fewer chip-seconds (the whole point).
    assert et.chip_seconds < 0.75 * static_chip_s
    assert et.n_scale_ups > 0 and et.n_drains > 0
    benchmark.extra_info["static_p99_ms"] = static_report.per_model[0].p99_ms
    benchmark.extra_info["elastic_p99_ms"] = (
        elastic_report.per_model[0].p99_ms
    )
    benchmark.extra_info["chip_seconds_saved"] = et.chip_seconds_saved
    rows = [
        (
            "static peak",
            CHIPS,
            f"{static_report.per_model[0].p99_ms:.3f}",
            f"{100 * static_report.slo_attainment:.1f}%",
            f"{static_chip_s * 1e3:.2f}",
            "-",
        ),
        (
            "elastic 1..8",
            f"{et.min_serving}..{et.max_serving}",
            f"{elastic_report.per_model[0].p99_ms:.3f}",
            f"{100 * elastic_report.slo_attainment:.1f}%",
            f"{et.chip_seconds * 1e3:.2f}",
            f"{100 * et.chip_seconds_saved:.1f}%",
        ),
    ]
    emit(
        f"Elastic vs static peak — {MODEL} diurnal @ {RPS:.0f} req/s, "
        f"SLO {SLO_MS:g} ms",
        format_table(
            ("fleet", "serving", "p99 ms", "attain", "chip-ms", "saved"),
            rows,
        ),
    )


def _delay_rows():
    rows = []
    for delay_ms in (0.5, 2.0, 5.0, 10.0):
        report, result = _serve(
            elastic=ElasticConfig(
                min_chips=1, max_chips=CHIPS, provision_delay_ms=delay_ms
            )
        )
        et = result.elastic
        rows.append(
            (
                delay_ms,
                report.per_model[0].p99_ms,
                report.slo_attainment,
                et.chip_seconds * 1e3,
            )
        )
    return rows


def test_provisioning_delay_prices_latency(benchmark):
    rows = benchmark.pedantic(_delay_rows, rounds=1, iterations=1)
    p99 = [r[1] for r in rows]
    # Slower capacity cannot improve the tail; the extremes must
    # genuinely separate (a 20x slower provision shows up in p99).
    assert p99[-1] >= p99[0]
    benchmark.extra_info["p99_ms_fastest"] = p99[0]
    benchmark.extra_info["p99_ms_slowest"] = p99[-1]
    emit(
        "Provisioning delay vs tail latency — elastic 1..8",
        format_table(
            ("delay ms", "p99 ms", "attain", "chip-ms"),
            [
                (f"{d:g}", f"{p:.3f}", f"{100 * a:.1f}%", f"{c:.2f}")
                for d, p, a, c in rows
            ],
        ),
    )


def _follow_the_sun():
    common = dict(
        n_regions=3,
        rps=50000.0,
        n_chips=4,
        duration_s=_horizon(0.1),
        seed=0,
        rtt_ms=1.0,
    )
    static = simulate_regions([MODEL], **common)
    elastic = simulate_regions(
        [MODEL],
        elastic=ElasticConfig(
            min_chips=1, max_chips=4, provision_delay_ms=2.0
        ),
        **common,
    )
    return static, elastic


def test_follow_the_sun(benchmark):
    static, elastic = benchmark.pedantic(
        _follow_the_sun, rounds=1, iterations=1
    )
    # Same traffic, same spill decisions (the spill pass is pre-engine).
    assert elastic.n_requests == static.n_requests
    assert elastic.n_spilled == static.n_spilled
    assert 0.0 < static.spill_fraction < 0.25
    # The staggered peaks are what elastic fleets monetize: every
    # region idles through its night, so the fleet-of-fleets bill drops.
    assert elastic.chip_seconds < 0.85 * static.chip_seconds
    benchmark.extra_info["spill_fraction"] = static.spill_fraction
    benchmark.extra_info["static_chip_s"] = static.chip_seconds
    benchmark.extra_info["elastic_chip_s"] = elastic.chip_seconds
    rows = [
        (
            "static",
            static.n_chips,
            f"{static.p50_ms:.3f}",
            f"{static.p99_ms:.3f}",
            f"{100 * static.spill_fraction:.1f}%",
            f"{static.chip_seconds * 1e3:.2f}",
        ),
        (
            "elastic 1..4/region",
            elastic.n_chips,
            f"{elastic.p50_ms:.3f}",
            f"{elastic.p99_ms:.3f}",
            f"{100 * elastic.spill_fraction:.1f}%",
            f"{elastic.chip_seconds * 1e3:.2f}",
        ),
    ]
    emit(
        "Follow the sun — 3 regions, staggered diurnal peaks, "
        "spill-over @ 1 ms RTT",
        format_table(
            ("fleet", "chips", "p50 ms", "p99 ms", "spilled", "chip-ms"),
            rows,
        ),
    )
