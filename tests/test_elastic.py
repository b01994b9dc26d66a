"""Elastic-fleet semantics: bands, controller decisions, engine scaling.

The engine-level tests pin the invariants the autoscaler is built on:

* the serving count never leaves ``[min_chips, max_chips]``;
* no request is ever dropped by a scaling action (every arrival is
  served — drains finish their in-flight batches);
* scale-ups pay the provisioning delay before capacity lands;
* a drain issued while scale-ups are still in flight cancels the en
  route capacity first instead of underflowing the active prefix;
* elastic runs are bit-deterministic (same config, same everything);
* the incompatibilities (preemption, a model with no chip inside the
  permanent prefix) raise at construction/run time, not mid-flight.
"""

import pytest

from repro.serve import (
    ElasticConfig,
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
    parse_autoscale,
    simulate_serving,
)
from repro.serve.elastic import ElasticController, ElasticTrace, ScalingAction
from repro.serve.cluster import Cluster
from repro.models.zoo import get_workload


_BAND = ElasticConfig(min_chips=1, max_chips=8, provision_delay_ms=2.0)


def _run_elastic(elastic=_BAND, rps=80000.0, seed=0):
    return simulate_serving(
        config=ServingConfig(
            workload=WorkloadConfig(
                models=("resnet18",),
                rps=rps,
                duration_s=0.05,
                trace_kind="diurnal",
                seed=seed,
            ),
            fleet=FleetConfig(fleet="yoco:8", elastic=elastic),
        )
    )


class TestConfig:
    def test_band_validation(self):
        with pytest.raises(ValueError):
            ElasticConfig(min_chips=0)
        with pytest.raises(ValueError):
            ElasticConfig(min_chips=4, max_chips=2)
        with pytest.raises(ValueError):
            ElasticConfig(min_chips=2, max_chips=4, initial_chips=1)
        with pytest.raises(ValueError):
            ElasticConfig(interval_ms=0.0)
        with pytest.raises(ValueError):
            ElasticConfig(rho_target=0.0)

    def test_resolve_clamps_to_fleet(self):
        cfg = ElasticConfig(min_chips=2, max_chips=None)
        assert cfg.resolve(8) == (2, 8, 2)
        assert ElasticConfig(
            min_chips=1, max_chips=4, initial_chips=3
        ).resolve(8) == (1, 4, 3)
        with pytest.raises(ValueError):
            ElasticConfig(min_chips=2, max_chips=16).resolve(8)
        with pytest.raises(ValueError):
            ElasticConfig(min_chips=9).resolve(8)

    def test_parse_autoscale_grammar(self):
        assert parse_autoscale("8") == ElasticConfig(min_chips=1, max_chips=8)
        assert parse_autoscale("2:8") == ElasticConfig(
            min_chips=2, max_chips=8
        )
        assert parse_autoscale("2:8:4") == ElasticConfig(
            min_chips=2, max_chips=8, initial_chips=4
        )
        with pytest.raises(ValueError):
            parse_autoscale("2:8:4:1")
        with pytest.raises(ValueError):
            parse_autoscale("a:b")


class TestController:
    def _controller(self, **cfg_kwargs):
        cfg = ElasticConfig(
            min_chips=1, max_chips=8, cooldown_intervals=2, **cfg_kwargs
        )
        cluster = Cluster([get_workload("resnet18")], fleet="yoco:8")
        return ElasticController(cfg, cluster, lo=1, hi=8)

    def test_rate_demand_scales_up(self):
        ctl = self._controller()
        # Far more arrivals than one chip sustains at rho 0.7.
        delta, reason = ctl.decide(
            arrivals=5000, interval_s=0.05, backlog=0, n_provisioned=1
        )
        assert delta > 0 and reason == "rate"

    def test_power_veto_blocks_scale_up(self):
        ctl = self._controller()
        delta, reason = ctl.decide(
            arrivals=5000,
            interval_s=0.05,
            backlog=0,
            n_provisioned=1,
            over_cap=True,
        )
        assert delta == 0 and reason == "power-veto"

    def test_backlog_kick_overrides_rate(self):
        ctl = self._controller(backlog_per_chip=2.0, step_chips=1)
        delta, reason = ctl.decide(
            arrivals=0, interval_s=0.001, backlog=50, n_provisioned=2
        )
        assert delta == 1 and reason == "backlog"

    def test_drain_respects_cooldown_after_scale_up(self):
        ctl = self._controller()
        up, _ = ctl.decide(
            arrivals=5000, interval_s=0.05, backlog=0, n_provisioned=1
        )
        assert up > 0
        # Demand vanishes: the next evaluations sit out the cooldown.
        for _ in range(2):
            delta, reason = ctl.decide(
                arrivals=0, interval_s=0.001, backlog=0, n_provisioned=1 + up
            )
            assert delta == 0 and reason == "cooldown"
        delta, reason = ctl.decide(
            arrivals=0, interval_s=0.001, backlog=0, n_provisioned=1 + up
        )
        assert delta < 0 and reason == "drain"

    def test_closed_loop_knee_bounds_capacity(self):
        cfg = ElasticConfig(min_chips=1, max_chips=8)
        cluster = Cluster([get_workload("resnet18")], fleet="yoco:8")
        ctl = ElasticController(
            cfg, cluster, lo=1, hi=8, n_clients=64, think_time_ms=0.0
        )
        # Zero think time: one client saturates one chip, so 64 clients
        # at rho 0.7 want the whole band even with no observed arrivals.
        delta, reason = ctl.decide(
            arrivals=0, interval_s=0.001, backlog=0, n_provisioned=1
        )
        assert delta == 7 and reason == "clients"


class TestEngineScaling:
    def test_scales_up_and_down_within_band(self):
        _, res = _run_elastic()
        et = res.elastic
        assert isinstance(et, ElasticTrace)
        assert et.n_scale_ups > 0 and et.n_drains > 0
        assert 1 <= et.min_serving and et.max_serving <= 8
        assert all(isinstance(a, ScalingAction) for a in et.actions)

    def test_no_request_lost_to_scaling(self):
        _, base = _run_elastic(elastic=None)
        _, res = _run_elastic()
        assert len(res.served) == len(base.served)
        assert {s.request.request_id for s in res.served} == {
            s.request.request_id for s in base.served
        }

    def test_elastic_run_is_deterministic(self):
        _, a = _run_elastic()
        _, b = _run_elastic()
        assert a.served == b.served
        assert a.elastic == b.elastic

    def test_provisioning_delay_separates_request_from_capacity(self):
        _, res = _run_elastic()
        et = res.elastic
        ups = [a for a in et.actions if a.delta > 0]
        assert ups
        first_up = ups[0]
        # Capacity lands exactly provision_delay after the request (the
        # activation is a timeline change point at t_request + delay).
        landing = first_up.t_ns + 2.0 * 1e6
        assert any(abs(t - landing) < 1e-6 for t, _ in et.timeline)

    def test_chip_seconds_below_static_peak(self):
        _, res = _run_elastic()
        et = res.elastic
        assert 0.0 < et.chip_seconds < et.static_chip_seconds
        assert 0.0 < et.chip_seconds_saved < 1.0

    def test_drain_cancels_capacity_still_en_route(self):
        # A long provisioning delay guarantees drains race in-flight
        # scale-ups; the serving floor must still hold (the original
        # bug drained the active prefix below min_chips).
        for seed in range(3):
            _, res = _run_elastic(
                seed=seed,
                elastic=ElasticConfig(
                    min_chips=1, max_chips=8, provision_delay_ms=10.0
                ),
            )
            et = res.elastic
            assert et.min_serving >= 1
            assert et.max_serving <= 8

    def test_closed_loop_elastic_scales_on_clients(self):
        _, res = simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(
                    models=("resnet18",),
                    clients=64,
                    think_time_ms=0.5,
                    duration_s=0.05,
                    seed=0,
                ),
                fleet=FleetConfig(
                    fleet="yoco:8", elastic=ElasticConfig(min_chips=1, max_chips=8)
                ),
            )
        )
        et = res.elastic
        assert et.n_scale_ups > 0
        assert any(a.reason == "clients" for a in et.actions)

    def test_static_full_band_collapses_to_inelastic(self):
        _, res = _run_elastic(
            elastic=ElasticConfig(min_chips=8, max_chips=8)
        )
        assert res.elastic is None

    def test_static_partial_band_parks_the_rest(self):
        # min == max < fleet: no controller, but the fleet genuinely
        # runs on fewer chips, and the trace records the flat timeline.
        _, res = _run_elastic(
            rps=10000.0,
            elastic=ElasticConfig(min_chips=2, max_chips=2),
        )
        et = res.elastic
        assert et is not None
        assert et.min_serving == et.max_serving == 2
        assert et.actions == ()
        served_chips = {s.chip_id for s in res.served}
        assert served_chips <= {0, 1}

    def test_preemption_is_rejected(self):
        with pytest.raises(ValueError, match="preemption"):
            simulate_serving(
                config=ServingConfig(
                    workload=WorkloadConfig(
                        models=("resnet18",),
                        tenants="a:interactive:poisson@1000,"
                        "b:batch:poisson@1000",
                        duration_s=0.01,
                        seed=0,
                    ),
                    fleet=FleetConfig(
                        fleet="yoco:4",
                        elastic=ElasticConfig(min_chips=1, max_chips=4),
                    ),
                    policy=PolicyConfig(preemption=True),
                )
            )

    def test_partitioned_model_outside_prefix_is_rejected(self):
        # Partitioned placement homes each model on a chip subset; a
        # min_chips prefix that excludes a model's every host would
        # orphan its queue on scale-down.
        with pytest.raises(ValueError, match="no hosting chip"):
            simulate_serving(
                config=ServingConfig(
                    workload=WorkloadConfig(
                        models=("resnet18", "alexnet"),
                        rps=4000.0,
                        duration_s=0.01,
                        seed=1,
                    ),
                    fleet=FleetConfig(
                        fleet="yoco:2",
                        placement="partitioned",
                        elastic=ElasticConfig(min_chips=1, max_chips=2),
                    ),
                )
            )

    def test_report_renders_autoscaling_line(self):
        report, _ = _run_elastic()
        from repro.serve import format_serving

        text = format_serving(report)
        assert "autoscaling       :" in text
        assert "% saved" in text

    def test_inelastic_report_has_no_autoscaling_line(self):
        report, _ = _run_elastic(elastic=None)
        from repro.serve import format_serving

        assert "autoscaling" not in format_serving(report)


class TestElasticTraceArithmetic:
    def test_chip_seconds_integral(self):
        trace = ElasticTrace(
            n_fleet=4,
            min_chips=1,
            max_chips=4,
            actions=(),
            timeline=((0.0, 1), (1e9, 3), (3e9, 2)),
            horizon_ns=4e9,
        )
        # 1 chip for 1 s, 3 chips for 2 s, 2 chips for 1 s.
        assert trace.chip_seconds == pytest.approx(1.0 + 6.0 + 2.0)
        assert trace.static_chip_seconds == pytest.approx(16.0)
        assert trace.chip_seconds_saved == pytest.approx(1.0 - 9.0 / 16.0)

    def test_end_extends_past_horizon_for_late_landings(self):
        trace = ElasticTrace(
            n_fleet=2,
            min_chips=1,
            max_chips=2,
            actions=(),
            timeline=((0.0, 1), (5e9, 2)),
            horizon_ns=1e9,
        )
        assert trace.end_ns == 5e9
