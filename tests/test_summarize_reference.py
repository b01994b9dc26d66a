"""`summarize` against a plain-Python recomputation from `result.served`.

Each report float is recomputed here the obvious way — Python lists in
arrival order, Python ``sum()``, one deadline lookup per request — and
compared with ``==``, so any change to how ``summarize`` groups, orders
or accumulates retained records shows up as a bit difference.  Two
scenarios: a mixed ``yoco:2,isaac:2`` fleet with two tenants under
weighted-fair scheduling, preemption and a sequence-length distribution;
and a decode run on the same fleet.
"""

from collections import Counter

import pytest

from repro.models import get_workload
from repro.serve import (
    Cluster,
    DecodeConfig,
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    Tenant,
    TenancyConfig,
    WorkloadConfig,
    percentile,
    simulate_serving,
)
from repro.serve.tenancy import deadline_ns

MODELS = ("resnet18", "mobilebert")
FLEET = "yoco:2,isaac:2"

TENANTS = (
    Tenant("chat", slo_class="interactive", weight=4.0, rps=4000.0,
           seqlen_dist="lognormal"),
    Tenant("bulk", slo_class="batch", rps=20000.0, seqlen_dist="lognormal"),
)

SCENARIOS = {
    "tenants": ServingConfig(
        workload=WorkloadConfig(
            models=MODELS, duration_s=0.05, seed=0, tenants=TENANTS
        ),
        fleet=FleetConfig(fleet=FLEET),
        policy=PolicyConfig(scheduler="weighted-fair", preemption=True),
    ),
    "decode": ServingConfig(
        workload=WorkloadConfig(
            models=("mobilebert",), rps=2000.0, duration_s=0.05, seed=0
        ),
        fleet=FleetConfig(fleet=FLEET, routing="round-robin"),
        decode=DecodeConfig(dist="lognormal", mean_tokens=16),
    ),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def run(request):
    config = SCENARIOS[request.param]
    report, result = simulate_serving(config)
    cluster = Cluster(
        [get_workload(m) for m in config.workload.models], fleet=FLEET
    )
    tenants = config.workload.tenants
    tenancy = TenancyConfig(tenants) if tenants else None
    return request.param, report, result, cluster, tenancy


def _latency_ms(s):
    return s.latency_ns * 1e-6


def _slo_ms(model, cluster):
    return 10.0 * cluster.reference_latency_ns(model) * 1e-6


def test_scenarios_exercise_what_they_claim(run):
    name, report, result, _, _ = run
    arrivals = [(s.request.arrival_ns, s.request.request_id) for s in result.served]
    assert arrivals == sorted(arrivals)
    assert len(report.per_chip_type) == 2
    if name == "tenants":
        assert result.n_preemptions > 0
        assert result.total_tokens > 0
        assert all(t.n_requests > 0 for t in report.per_tenant)
    else:
        assert result.n_decode_tokens > 0


def test_per_model_matches_plain_python(run):
    _, report, result, cluster, _ = run
    assert [m.model for m in report.per_model] == list(
        dict.fromkeys(s.request.model for s in result.served)
    )
    for stats in report.per_model:
        served = [s for s in result.served if s.request.model == stats.model]
        n = len(served)
        lat = [_latency_ms(s) for s in served]
        slo = _slo_ms(stats.model, cluster)
        sizes = Counter(s.batch_size for s in served)
        assert stats.n_requests == n
        assert stats.mean_ms == sum(lat) / n
        assert stats.energy_per_request_uj == (
            sum(s.energy_pj for s in served) * 1e-6 / n
        )
        assert stats.slo_ms == slo
        assert stats.slo_attainment == sum(1 for x in lat if x <= slo) / n
        assert stats.mean_batch_size == n / sum(
            count / b for b, count in sizes.items()
        )
        assert stats.p99_ms == percentile(lat, 99)
        decoded = [s for s in served if s.decode_tokens]
        if not decoded:
            assert stats.ttft_p50_ms == stats.kv_overflow == 0.0
            continue
        ttft = [s.ttft_ns * 1e-6 for s in decoded]
        itl = [s.itl_ns * 1e-6 for s in decoded]
        assert stats.ttft_p50_ms == percentile(ttft, 50)
        assert stats.ttft_p99_ms == percentile(ttft, 99)
        assert stats.itl_p50_ms == percentile(itl, 50)
        assert stats.itl_p99_ms == percentile(itl, 99)
        kv = sum(s.kv_bytes for s in decoded)
        assert stats.kv_overflow == (
            sum(s.kv_overflow_bytes for s in decoded) / kv
        )


def test_per_chip_type_matches_plain_python(run):
    _, report, result, cluster, _ = run
    duration_s = result.makespan_ns * 1e-9
    for stats in report.per_chip_type:
        ids = cluster.chips_of_type(stats.chip_type)
        served = [s for s in result.served if s.chip_id in ids]
        met = sum(
            1
            for s in served
            if _latency_ms(s) <= _slo_ms(s.request.model, cluster)
        )
        energy_pj = sum(s.energy_pj for s in served)
        busy_ns = sum(result.chip_busy_ns[i] for i in ids)
        assert stats.n_requests == len(served) > 0
        assert stats.energy_uj == energy_pj * 1e-6
        assert stats.goodput_rps == met / duration_s
        assert stats.watts == energy_pj / busy_ns * 1e-3


def test_per_tenant_matches_plain_python(run):
    _, report, result, cluster, tenancy = run
    if tenancy is None:
        assert report.per_tenant == ()
        return
    assert [t.tenant for t in report.per_tenant] == list(tenancy.names)
    for stats in report.per_tenant:
        tenant = tenancy.tenant(stats.tenant)
        served = [s for s in result.served if s.request.tenant == stats.tenant]
        lat = [_latency_ms(s) for s in served]
        met = sum(
            1
            for s, x in zip(served, lat)
            if x <= deadline_ns(tenant, s.request.model, cluster) * 1e-6
        )
        assert stats.n_requests == len(served)
        assert stats.mean_ms == sum(lat) / len(lat)
        assert stats.p50_ms == percentile(lat, 50)
        assert stats.p99_ms == percentile(lat, 99)
        assert stats.slo_attainment == met / len(served)
