"""Unit tests of `repro.serve.tenancy`: grammar, schedulers, preemption.

The differential/golden and noisy-neighbor isolation guarantees live in
``tests/test_tenancy_differential.py``; this file pins the subsystem's
local contracts — the ``--tenants`` grammar round-trips, the weighted-fair
virtual clock charges ``service/weight`` and clamps idle wake-ups, the
preemption path conserves every request while charging the wasted service
time and the re-dispatch overhead explicitly, and the engine rejects the
configurations that cannot compose (preemption under a power governor,
tenancy with closed-loop clients, undeclared tenant tags).
"""

import dataclasses

import pytest

from repro.models.zoo import get_workload
from repro.serve import (
    BatchingPolicy,
    Cluster,
    FleetConfig,
    PolicyConfig,
    PowerConfig,
    ServingConfig,
    ServingEngine,
    Tenant,
    TenancyConfig,
    WorkloadConfig,
    merge_traces,
    parse_tenants,
    simulate_serving,
    summarize,
)
from repro.serve.admission import QueueDepthCap, TenantTokenBucket, TokenBucket
from repro.serve.tenancy import (
    WeightedFairScheduler,
    deadline_ns,
    make_scheduler,
)
from repro.serve.traces import fixed_trace, poisson_trace
from repro.serve.batching import ModelQueue


def _one_chip(workload, policy=PolicyConfig()):
    return ServingConfig(
        workload=workload, fleet=FleetConfig(fleet="yoco:1"), policy=policy
    )


def _tag(trace, tenant):
    return tuple(dataclasses.replace(r, tenant=tenant) for r in trace)


@pytest.fixture(scope="module")
def cluster():
    return Cluster([get_workload("resnet18")], fleet="yoco:1")


# -- grammar -------------------------------------------------------------------------


class TestParseTenants:
    def test_full_grammar_round_trips(self):
        tenants = parse_tenants(
            "chat:interactive:w=4:poisson@200:seqlen=lognormal@512"
            ":rate=250@16:deadline=2.5,"
            "bulk:batch:bursty@4000:model=resnet18+alexnet"
        )
        chat, bulk = tenants
        assert chat.name == "chat" and chat.slo_class == "interactive"
        assert chat.weight == 4.0
        assert chat.trace_kind == "poisson" and chat.rps == 200.0
        assert chat.seqlen_dist == "lognormal" and chat.seqlen_mean == 512
        assert chat.rate_limit_rps == 250.0 and chat.rate_limit_burst == 16.0
        assert chat.deadline_ms == 2.5
        assert bulk.trace_kind == "bursty" and bulk.rps == 4000.0
        assert bulk.models == ("resnet18", "alexnet")
        assert bulk.weight == 1.0 and bulk.rate_limit_rps is None

    def test_defaults_are_poisson_at_1000(self):
        (t,) = parse_tenants("solo:batch")
        assert t.trace_kind == "poisson" and t.rps == 1000.0

    @pytest.mark.parametrize(
        "spec",
        [
            "",  # empty
            "lonely",  # missing class
            "x:no-such-class",
            "x:batch:w=4:w=8",  # duplicate option
            "x:batch:frobnicate=1",  # unknown option
            "x:batch:poisson@100:bursty@200",  # duplicate trace spec
            "a:batch,a:interactive",  # duplicate tenant name
            "x:batch:seqlen=zipf",  # unknown distribution
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            TenancyConfig(parse_tenants(spec))

    def test_validation_catches_bad_fields(self):
        with pytest.raises(ValueError):
            Tenant("x", weight=0.0)
        with pytest.raises(ValueError):
            Tenant("x", rps=-1.0)
        with pytest.raises(ValueError):
            Tenant("a:b")  # grammar metacharacter in the name
        with pytest.raises(ValueError):
            TenancyConfig((), scheduler="fifo")
        with pytest.raises(ValueError):
            TenancyConfig((Tenant("x"),), scheduler="lottery")


# -- deadlines -----------------------------------------------------------------------


class TestDeadlines:
    def test_class_multiple_of_reference_floor(self, cluster):
        ref = cluster.reference_latency_ns("resnet18")
        chat = Tenant("chat", slo_class="interactive")
        bulk = Tenant("bulk", slo_class="batch")
        assert deadline_ns(chat, "resnet18", cluster) == 10.0 * ref
        assert deadline_ns(bulk, "resnet18", cluster) == 50.0 * ref

    def test_absolute_override_wins(self, cluster):
        t = Tenant("chat", slo_class="interactive", deadline_ms=2.0)
        assert deadline_ns(t, "resnet18", cluster) == 2.0 * 1e6

    def test_best_effort_has_no_deadline(self, cluster):
        import math

        t = Tenant("scrape", slo_class="best-effort")
        assert math.isinf(deadline_ns(t, "resnet18", cluster))


# -- schedulers ----------------------------------------------------------------------


class TestSchedulers:
    def test_fifo_key_collapses_to_arrival_then_index(self):
        s = make_scheduler("fifo")
        s.reset(())
        assert s.key("a", 5.0, 1) < s.key("b", 6.0, 0)
        assert s.key("a", 5.0, 0) < s.key("b", 5.0, 1)

    def test_strict_priority_outranks_age(self):
        s = make_scheduler("strict-priority")
        s.reset(
            (Tenant("chat", "interactive"), Tenant("scrape", "best-effort"))
        )
        # A much older best-effort request still loses to interactive.
        assert s.key("chat", 1e9, 1) < s.key("scrape", 0.0, 0)

    def test_weighted_fair_charges_service_over_weight(self):
        s = WeightedFairScheduler()
        s.reset((Tenant("a", weight=2.0), Tenant("b", weight=1.0)))
        s.on_dispatch("a", 100.0)
        s.on_dispatch("b", 100.0)
        assert s.virtual_times == {"a": 50.0, "b": 100.0}
        # a is cheaper, so it wins the next dispatch.
        assert s.key("a", 0.0, 0) < s.key("b", 0.0, 1)

    def test_idle_wakeup_is_clamped_to_the_virtual_clock(self):
        s = WeightedFairScheduler()
        s.reset((Tenant("busy", weight=1.0), Tenant("idle", weight=1.0)))
        for _ in range(10):
            s.on_dispatch("busy", 100.0)
        # vclock is busy's pre-charge time (900), not its post-charge 1000.
        s.on_activate("idle")
        assert s.virtual_times["idle"] == 900.0
        # The waking tenant gets the next dispatch but no banked credit:
        # it must not be able to monopolize after idling.
        assert s.key("idle", 0.0, 1) < s.key("busy", 0.0, 0)

    def test_weighted_fair_shares_a_contended_chip_by_weight(self):
        # Both tenants saturate one chip; the weight-4 tenant's requests
        # should wait far less than the weight-1 tenant's.
        heavy = _tag(poisson_trace("resnet18", 20000.0, 0.01, seed=0), "heavy")
        light = _tag(poisson_trace("resnet18", 20000.0, 0.01, seed=1), "light")
        config = TenancyConfig(
            (
                Tenant("heavy", "batch", weight=4.0),
                Tenant("light", "batch", weight=1.0),
            ),
            scheduler="weighted-fair",
        )
        engine = ServingEngine(
            Cluster([get_workload("resnet18")], fleet="yoco:1"), tenancy=config
        )
        result = engine.run(merge_traces(heavy, light))
        mean = {
            t: sum(s.latency_ns for s in result.for_tenant(t))
            / len(result.for_tenant(t))
            for t in ("heavy", "light")
        }
        assert mean["heavy"] < mean["light"]


# -- queue mechanics -----------------------------------------------------------------


class TestPushFront:
    def test_requeued_batch_keeps_bucket_order(self):
        arrivals = [float(i) for i in range(6)]
        seq_lens = [100 + 60 * (i % 2) for i in range(6)]
        queue = ModelQueue(arrivals, seq_lens, buckets=(128, 256))
        for row in range(6):
            queue.push(row)
        policy = BatchingPolicy(max_batch_size=3, window_ns=0.0)
        rows, padded = queue.pop_batch(1e9, policy)
        queue.push_front(rows)
        # Popping again returns the exact same rows in the same order.
        assert queue.pop_batch(1e9, policy) == (rows, padded)
        assert len(queue) == 6 - len(rows)


# -- per-tenant admission ------------------------------------------------------------


class TestTenantTokenBucket:
    def test_each_tenant_burns_only_its_own_tokens(self, cluster):
        policy = TenantTokenBucket(
            {"a": TokenBucket(rate_rps=1.0, burst=2.0)}
        )
        policy.reset(cluster, BatchingPolicy())
        assert policy.admit("resnet18", "a", 0.0, 0, 0)
        assert policy.admit("resnet18", "a", 0.0, 0, 0)
        assert not policy.admit("resnet18", "a", 0.0, 0, 0)
        # An unlimited tenant is untouched by a's exhaustion.
        for i in range(10):
            assert policy.admit("resnet18", "b", 0.0, 0, 0)
        assert policy.name == "tenant-bucket"

    def test_inner_policy_composes_conjunctively(self, cluster):
        policy = TenantTokenBucket(
            {"a": TokenBucket(rate_rps=1.0, burst=1.0)},
            inner=QueueDepthCap(max_depth=2),
        )
        policy.reset(cluster, BatchingPolicy())
        assert policy.name == "tenant-bucket+queue-cap"
        assert policy.admit("resnet18", "a", 0.0, 0, 0)
        # Bucket empty: rejected before the inner cap is consulted.
        assert not policy.admit("resnet18", "a", 0.0, 0, 0)
        # Unlimited tenant still faces the inner cap.
        assert not policy.admit("resnet18", "b", 0.0, 2, 2)


# -- engine guards -------------------------------------------------------------------


class TestEngineGuards:
    def _config(self, preemption=False):
        return TenancyConfig(
            (Tenant("chat", "interactive"), Tenant("bulk", "batch")),
            preemption=preemption,
        )

    def test_preemption_under_a_power_governor_is_rejected(self, cluster):
        with pytest.raises(ValueError, match="power governor"):
            ServingEngine(
                cluster,
                power=PowerConfig(power_cap_w=0.5),
                tenancy=self._config(preemption=True),
            )
        # Without preemption the combination is fine.
        ServingEngine(
            cluster, power=PowerConfig(power_cap_w=0.5), tenancy=self._config()
        )

    def test_undeclared_tenant_tag_is_rejected(self, cluster):
        engine = ServingEngine(cluster, tenancy=self._config())
        trace = _tag(fixed_trace("resnet18", [0.0]), "mystery")
        with pytest.raises(ValueError, match="mystery"):
            engine.run(trace)
        # Untagged requests are undeclared too under tenancy.
        with pytest.raises(ValueError):
            engine.run(fixed_trace("resnet18", [0.0]))

    def test_tenancy_with_clients_is_rejected(self):
        with pytest.raises(ValueError, match="closed-loop"):
            simulate_serving(
                config=_one_chip(
                    WorkloadConfig(
                        models=("resnet18",), clients=4, tenants="solo:batch"
                    )
                )
            )

    def test_scheduler_knob_without_tenants_is_rejected(self):
        with pytest.raises(ValueError, match="tenants"):
            simulate_serving(
                config=_one_chip(
                    WorkloadConfig(models=("resnet18",)),
                    PolicyConfig(scheduler="weighted-fair"),
                )
            )

    def test_tenant_calling_unserved_model_is_rejected(self):
        with pytest.raises(ValueError, match="alexnet"):
            simulate_serving(
                config=_one_chip(
                    WorkloadConfig(
                        models=("resnet18",),
                        tenants="solo:batch:model=alexnet",
                    )
                )
            )


# -- preemption ----------------------------------------------------------------------


class TestPreemption:
    """A hand-built two-tenant collision that must preempt exactly once."""

    OVERHEAD_NS = 10_000.0

    def _scenario(self, cluster, preemption=True, deadline_ms=None):
        ref = cluster.reference_latency_ns("resnet18")
        if deadline_ms is None:
            # Tight enough that waiting for the bulk batch misses it,
            # loose enough that preempting (overhead + batch-1 floor)
            # makes it.
            deadline_ms = (self.OVERHEAD_NS + ref + 5_000.0) * 1e-6
        config = TenancyConfig(
            (
                Tenant("chat", "interactive", deadline_ms=deadline_ms),
                Tenant("bulk", "batch"),
            ),
            preemption=preemption,
            preemption_overhead_ns=self.OVERHEAD_NS,
        )
        # 8 bulk requests at t=0 fill max_batch_size, so the batch
        # dispatches immediately at t=0 (the 500 ns window never fires);
        # the chat request lands mid-service at t=1000.
        bulk = _tag(fixed_trace("resnet18", [0.0] * 8), "bulk")
        chat = _tag(fixed_trace("resnet18", [1000.0]), "chat")
        engine = ServingEngine(
            cluster,
            BatchingPolicy(max_batch_size=8, window_ns=500.0),
            tenancy=config,
        )
        return engine, merge_traces(bulk, chat), config

    def test_collision_preempts_exactly_once(self, cluster):
        engine, trace, config = self._scenario(cluster)
        b8 = cluster.service(0, "resnet18", 8).latency_ns
        deadline = config.tenant("chat").deadline_ms * 1e6
        ref = cluster.reference_latency_ns("resnet18")
        # Scenario preconditions: waiting misses, preempting does not.
        assert b8 + ref > 1000.0 + deadline
        assert 1000.0 + self.OVERHEAD_NS + ref <= 1000.0 + deadline
        result = engine.run(trace)
        assert result.n_preemptions == 1
        (record,) = result.preempted
        assert record.tenant == "bulk" and record.by_tenant == "chat"
        assert record.batch_size == 8 and record.chip_id == 0
        # The victim dispatched at t=0 and died at 1000.
        assert record.preempt_ns == 1000.0
        assert record.wasted_ns == 1000.0
        assert result.preempted_wasted_ns == 1000.0

    def test_preemptor_pays_the_redispatch_overhead(self, cluster):
        engine, trace, _ = self._scenario(cluster)
        result = engine.run(trace)
        (chat,) = result.for_tenant("chat")
        b1 = cluster.service(0, "resnet18", 1).latency_ns
        assert chat.dispatch_ns == 1000.0
        assert chat.finish_ns == 1000.0 + self.OVERHEAD_NS + b1
        deadline = 10_000.0 + cluster.reference_latency_ns("resnet18") + 5_000.0
        assert chat.latency_ns <= deadline

    def test_every_request_is_still_served_exactly_once(self, cluster):
        engine, trace, _ = self._scenario(cluster)
        result = engine.run(trace)
        assert result.n_requests == len(trace)
        ids = [s.request.request_id for s in result.served]
        assert sorted(ids) == [r.request_id for r in trace]
        # The preempted bulk requests finish after the chat request.
        (chat,) = result.for_tenant("chat")
        assert all(
            s.finish_ns > chat.finish_ns for s in result.for_tenant("bulk")
        )

    def test_wasted_time_is_charged_to_the_chip(self, cluster):
        engine, trace, _ = self._scenario(cluster)
        result = engine.run(trace)
        b1 = cluster.service(0, "resnet18", 1).latency_ns
        b8 = cluster.service(0, "resnet18", 8).latency_ns
        # wasted (1000) + chat (overhead + b1) + redone bulk batch (b8).
        expected = 1000.0 + self.OVERHEAD_NS + b1 + b8
        assert result.chip_busy_ns[0] == pytest.approx(expected, rel=1e-12)

    def test_disabled_preemption_waits_instead(self, cluster):
        engine, trace, _ = self._scenario(cluster, preemption=False)
        result = engine.run(trace)
        assert result.n_preemptions == 0
        (chat,) = result.for_tenant("chat")
        b8 = cluster.service(0, "resnet18", 8).latency_ns
        assert chat.dispatch_ns >= b8  # waited out the bulk batch

    def test_loose_deadline_never_pulls_the_trigger(self, cluster):
        engine, trace, _ = self._scenario(cluster, deadline_ms=1e3)
        result = engine.run(trace)
        assert result.n_preemptions == 0


# -- report plumbing -----------------------------------------------------------------


class TestTenantReport:
    def test_per_tenant_stats_and_gating(self, cluster):
        chat = _tag(poisson_trace("resnet18", 3000.0, 0.01, seed=0), "chat")
        bulk = _tag(poisson_trace("resnet18", 3000.0, 0.01, seed=1), "bulk")
        config = TenancyConfig(
            (Tenant("chat", "interactive"), Tenant("bulk", "batch")),
            scheduler="strict-priority",
        )
        engine = ServingEngine(cluster, tenancy=config)
        result = engine.run(merge_traces(chat, bulk))
        report = summarize(result, cluster, tenancy=config)
        assert report.has_tenants and report.scheduler == "strict-priority"
        by_name = {t.tenant: t for t in report.per_tenant}
        assert by_name["chat"].slo_class == "interactive"
        assert by_name["chat"].n_requests == len(chat)
        assert by_name["bulk"].n_requests == len(bulk)
        # Interactive attainment is scored against its own 10x deadline,
        # batch against its looser 50x one.
        assert 0.0 <= by_name["chat"].slo_attainment <= 1.0
        from repro.serve import format_serving

        rendered = format_serving(report)
        assert "tenancy           : strict-priority scheduler" in rendered
        assert "chat" in rendered and "interactive" in rendered

    def test_single_tenant_fifo_report_is_gated_off(self, cluster):
        solo = _tag(poisson_trace("resnet18", 3000.0, 0.01, seed=0), "solo")
        config = TenancyConfig((Tenant("solo", "batch"),))
        engine = ServingEngine(cluster, tenancy=config)
        report = summarize(engine.run(solo), cluster, tenancy=config)
        assert not report.has_tenants
        assert len(report.per_tenant) == 1  # still available programmatically
        from repro.serve import format_serving

        assert "tenancy" not in format_serving(report)
