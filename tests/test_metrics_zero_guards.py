"""Division-by-zero audit of `serve.metrics` for degenerate runs.

Empty closed-loop runs are routine, not exotic: a think time longer than
the horizon, a over-aggressive admission policy, or a saturation sweep's
first point can all produce results with zero completions, zero batches
or zero tokens.  Every ratio in :func:`summarize`, :func:`format_serving`
and the result/report properties must degrade to a defined value (0.0, or
1.0 for attainment-of-nothing) instead of raising — the
``tops_per_watt``-style guard discipline of the energy layer, applied to
the serving metrics.
"""

import dataclasses

import pytest

from repro.models.zoo import get_workload
from repro.serve import (
    BatchingPolicy,
    Cluster,
    FleetConfig,
    ServingConfig,
    ServingEngine,
    Tenant,
    TenancyConfig,
    WorkloadConfig,
    format_serving,
    simulate_serving,
    summarize,
)
from repro.serve.admission import SloAwareShedding
from repro.serve.traces import fixed_trace, merge_traces


@pytest.fixture(scope="module")
def cluster():
    return Cluster([get_workload("resnet18")], fleet="yoco:1")


def _assert_zero_report_is_sane(report):
    assert report.n_requests == 0
    assert report.duration_s == 0.0
    assert report.throughput_rps == 0.0
    assert report.goodput_rps == 0.0
    assert report.energy_per_request_uj == 0.0
    assert report.mean_batch_size == 0.0
    assert report.slo_attainment == 1.0  # vacuous: nothing missed its SLO
    assert report.mean_chip_utilization == 0.0
    assert report.tokens_per_s == 0.0
    assert report.energy_per_token_nj == 0.0
    assert report.padding_overhead == 0.0
    assert report.rejection_rate == 0.0 or report.n_offered > 0
    # The renderer must survive the empty table too.
    assert "requests served   : 0 in 0 batches" in format_serving(report)


class TestEmptyOpenLoop:
    def test_empty_trace_summarizes_and_renders(self, cluster):
        result = ServingEngine(cluster).run(())
        assert result.n_requests == 0 and result.makespan_ns == 0.0
        assert result.chip_utilization == (0.0,)
        assert result.mean_batch_size == 0.0
        assert result.padding_overhead == 0.0
        assert result.rejection_rate == 0.0
        _assert_zero_report_is_sane(summarize(result, cluster))


class TestEmptyClosedLoop:
    def test_think_time_beyond_horizon_yields_a_sane_empty_report(self):
        report, result = simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(
                    models=("resnet18",),
                    clients=2,
                    think_time_ms=100.0,
                    think_dist="fixed",
                    duration_s=0.001,
                ),
                fleet=FleetConfig(fleet="yoco:1"),
            )
        )
        assert result.n_requests == 0
        _assert_zero_report_is_sane(report)
        assert report.has_clients and report.requests_per_client == 0.0
        assert "0.0 req/client" in format_serving(report)


class TestEverythingShed:
    def test_all_requests_rejected_still_summarizes(self, cluster):
        # An unmeetable SLO condemns even an empty-queue arrival.
        policy = SloAwareShedding(slo_ms=1e-6)
        engine = ServingEngine(
            cluster, BatchingPolicy(max_batch_size=1), admission=policy
        )
        result = engine.run(fixed_trace("resnet18", [0.0, 10.0, 20.0]))
        assert result.n_requests == 0
        assert result.n_dropped == 3
        assert result.rejection_rate == 1.0
        report = summarize(result, cluster)
        _assert_zero_report_is_sane(report)
        assert report.has_admission
        rendered = format_serving(report)
        assert "shed 3 (100.0 %)" in rendered


class TestZeroTokenTraffic:
    def test_native_shape_run_keeps_token_ratios_at_zero(self, cluster):
        result = ServingEngine(cluster).run(
            fixed_trace("resnet18", [0.0, 10.0])
        )
        assert result.total_tokens == 0
        assert result.total_padded_tokens == 0
        assert result.padding_overhead == 0.0
        report = summarize(result, cluster)
        assert not report.has_tokens
        assert report.tokens_per_s == 0.0
        assert report.energy_per_token_nj == 0.0
        for m in report.per_model:
            assert m.mean_seq_len == 0.0
            assert m.energy_per_token_nj == 0.0
            assert m.padding_overhead == 0.0

class TestTenantZeroGuards:
    """PR 6: per-tenant sections survive a tenant that never completes."""

    def _shed_everything(self, cluster):
        config = TenancyConfig(
            (Tenant("chat", "interactive"), Tenant("bulk", "batch")),
            scheduler="strict-priority",
        )
        engine = ServingEngine(
            cluster,
            BatchingPolicy(max_batch_size=1),
            admission=SloAwareShedding(slo_ms=1e-6),
            tenancy=config,
        )
        trace = merge_traces(
            tuple(
                dataclasses.replace(r, tenant="chat")
                for r in fixed_trace("resnet18", [0.0, 10.0])
            ),
            tuple(
                dataclasses.replace(r, tenant="bulk")
                for r in fixed_trace("resnet18", [5.0])
            ),
        )
        result = engine.run(trace)
        return result, summarize(result, cluster, tenancy=config), config

    def test_fully_shed_tenants_render_without_dividing(self, cluster):
        result, report, _ = self._shed_everything(cluster)
        assert result.n_requests == 0 and result.n_dropped == 3
        _assert_zero_report_is_sane(report)
        assert report.has_tenants  # two tenants, non-fifo scheduler
        assert len(report.per_tenant) == 2
        for stats in report.per_tenant:
            assert stats.n_requests == 0
            assert stats.p50_ms == 0.0
            assert stats.p99_ms == 0.0
            assert stats.mean_ms == 0.0
            assert stats.goodput_rps == 0.0
            assert stats.slo_attainment == 1.0  # vacuous
            assert stats.rejection_rate == 1.0
            assert stats.n_preemptions == 0
            assert stats.preempted_wasted_ms == 0.0
        rendered = format_serving(report)
        assert "chat" in rendered and "bulk" in rendered

    def test_tenant_with_zero_offered_traffic_is_still_sane(self, cluster):
        # A declared tenant whose trace lane generated nothing at all.
        config = TenancyConfig(
            (Tenant("chat", "interactive"), Tenant("ghost", "batch")),
            scheduler="weighted-fair",
        )
        engine = ServingEngine(cluster, tenancy=config)
        trace = tuple(
            dataclasses.replace(r, tenant="chat")
            for r in fixed_trace("resnet18", [0.0, 10.0])
        )
        report = summarize(engine.run(trace), cluster, tenancy=config)
        ghost = next(t for t in report.per_tenant if t.tenant == "ghost")
        assert ghost.n_offered == 0 and ghost.n_requests == 0
        assert ghost.rejection_rate == 0.0  # nothing offered, nothing shed
        assert ghost.slo_attainment == 1.0
        format_serving(report)  # must not raise
