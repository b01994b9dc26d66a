"""Discrete-event serving engine: determinism, scaling and conservation.

Covers the acceptance scenario of the serving subsystem: the CLI's
``serve --model resnet18 --chips 4 --rps 2000 --seed 0`` run is (a)
deterministic across runs, (b) p99-monotone in cluster size at fixed
load, and (c) tied back to the single-inference energy roll-up at
batch size 1.
"""

import pytest

from repro.arch import ArchitectureSimulator, yoco_spec
from repro.models import get_workload
from repro.serve import (
    BatchingPolicy,
    Cluster,
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    ServingEngine,
    WorkloadConfig,
    format_serving,
    simulate_serving,
    summarize,
)
from repro.serve.traces import fixed_trace, poisson_trace


def _run(n_chips=4, rps=2000.0, seed=0, max_batch_size=8, mode="batched"):
    return simulate_serving(
        config=ServingConfig(
            workload=WorkloadConfig(models=("resnet18",), rps=rps, seed=seed),
            fleet=FleetConfig(fleet=f"yoco:{n_chips}:{mode}"),
            policy=PolicyConfig(max_batch_size=max_batch_size),
        )
    )


class TestDeterminism:
    def test_same_seed_same_report(self):
        first, _ = _run(seed=0)
        second, _ = _run(seed=0)
        assert format_serving(first) == format_serving(second)
        assert first == second

    def test_served_requests_identical(self):
        _, a = _run(seed=0)
        _, b = _run(seed=0)
        assert a.served == b.served
        assert a.chip_busy_ns == b.chip_busy_ns

    def test_different_seed_differs(self):
        a, _ = _run(seed=0)
        b, _ = _run(seed=1)
        assert a != b


class TestScaling:
    def test_p99_monotone_in_chips_at_fixed_load(self):
        """More chips never hurt tail latency (acceptance criterion b)."""
        p99 = [
            _run(n_chips=chips, rps=2000.0)[0].per_model[0].p99_ms
            for chips in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(p99, p99[1:]))

    def test_p99_monotone_under_saturating_load(self):
        """The same holds where queueing dominates (chip 1 saturated)."""
        p99 = [
            _run(n_chips=chips, rps=60000.0)[0].per_model[0].p99_ms
            for chips in (1, 2, 4)
        ]
        assert p99[0] > 10 * p99[2]  # 1 chip is genuinely overloaded
        assert all(a >= b - 1e-9 for a, b in zip(p99, p99[1:]))

    def test_overload_shows_up_in_utilization(self):
        report, _ = _run(n_chips=1, rps=60000.0)
        assert report.chip_utilization[0] > 0.95
        light, _ = _run(n_chips=4, rps=2000.0)
        assert light.mean_chip_utilization < 0.25


class TestEnergyContract:
    def test_batch_one_energy_matches_single_inference(self):
        """Acceptance criterion (c): at batch 1, every request's energy is
        exactly the ArchitectureSimulator.run roll-up."""
        workload = get_workload("resnet18")
        run = ArchitectureSimulator(yoco_spec()).run(workload)
        report, result = _run(max_batch_size=1)
        assert report.energy_per_request_uj == pytest.approx(
            run.energy_pj * 1e-6, rel=1e-9
        )
        for served in result.served:
            assert served.energy_pj == pytest.approx(run.energy_pj, rel=1e-9)
            assert served.batch_size == 1

    def test_energy_per_request_independent_of_batching(self):
        """Linear energy: batching changes latency, not energy/request."""
        batched, _ = _run(max_batch_size=8)
        unbatched, _ = _run(max_batch_size=1)
        assert batched.energy_per_request_uj == pytest.approx(
            unbatched.energy_per_request_uj, rel=1e-9
        )


class TestConservation:
    def test_every_request_served_once(self):
        cluster = Cluster([get_workload("resnet18")], fleet="yoco:2")
        trace = poisson_trace("resnet18", rps=5000, duration_s=0.05, seed=2)
        result = ServingEngine(cluster).run(trace)
        assert result.n_requests == len(trace)
        assert sorted(s.request.request_id for s in result.served) == list(
            range(len(trace))
        )

    def test_latency_floor_and_busy_bounds(self):
        _, result = _run()
        floor = Cluster([get_workload("resnet18")], fleet="yoco:4").reference_latency_ns(
            "resnet18"
        )
        for served in result.served:
            assert served.latency_ns >= floor * 0.999
            assert served.queue_ns >= 0.0
            assert served.batch_size <= result.policy.max_batch_size
        for busy, util in zip(result.chip_busy_ns, result.chip_utilization):
            assert 0.0 <= busy <= result.makespan_ns
            assert 0.0 <= util <= 1.0

    def test_chips_never_overlap_batches(self):
        """Per chip, dispatch intervals are disjoint: total busy time equals
        the sum of distinct batch service times."""
        _, result = _run(rps=20000.0, n_chips=2)
        spans = {}
        for s in result.served:
            spans.setdefault(s.chip_id, set()).add((s.dispatch_ns, s.finish_ns))
        for chip, intervals in spans.items():
            ordered = sorted(intervals)
            for (_, end), (start, _) in zip(ordered, ordered[1:]):
                assert start >= end - 1e-6


class TestFairness:
    def test_dispatch_is_fcfs_across_models(self):
        """Per-model latency must not depend on cluster model-list order:
        the oldest waiting request dispatches first."""
        workloads = [get_workload("resnet18"), get_workload("alexnet")]
        trace = sorted(
            poisson_trace("resnet18", rps=15000, duration_s=0.02, seed=1)
            + poisson_trace("alexnet", rps=15000, duration_s=0.02, seed=2),
            key=lambda r: r.arrival_ns,
        )
        forward = ServingEngine(Cluster(workloads, fleet="yoco:1")).run(trace)
        backward = ServingEngine(Cluster(workloads[::-1], fleet="yoco:1")).run(trace)

        def mean_ms(result, model):
            served = result.for_model(model)
            return sum(s.latency_ns for s in served) * 1e-6 / len(served)

        for model in ("resnet18", "alexnet"):
            assert mean_ms(forward, model) == pytest.approx(
                mean_ms(backward, model), rel=1e-6
            )


class TestEdgeCases:
    def test_empty_trace(self):
        cluster = Cluster([get_workload("resnet18")], fleet="yoco:1")
        result = ServingEngine(cluster).run(())
        assert result.n_requests == 0
        assert result.makespan_ns == 0.0
        assert result.chip_utilization == (0.0,)

    def test_unknown_model_rejected(self):
        cluster = Cluster([get_workload("resnet18")], fleet="yoco:1")
        with pytest.raises(ValueError):
            ServingEngine(cluster).run(fixed_trace("vgg16", [0.0]))

    def test_final_partial_batch_flushes(self):
        """A lone request still dispatches once its window expires."""
        cluster = Cluster([get_workload("resnet18")], fleet="yoco:1")
        policy = BatchingPolicy(max_batch_size=64, window_ns=1e6)
        result = ServingEngine(cluster, policy).run(
            fixed_trace("resnet18", [100.0])
        )
        assert result.n_requests == 1
        served = result.served[0]
        assert served.dispatch_ns == pytest.approx(100.0 + 1e6)

    def test_pipelined_cluster_serves(self):
        report, _ = _run(mode="pipelined", rps=10000.0, n_chips=2)
        assert report.n_requests > 0
        assert report.slo_attainment > 0.0


class TestSummary:
    def test_report_counts_and_rates(self):
        report, result = _run()
        assert report.n_requests == result.n_requests
        assert report.throughput_rps == pytest.approx(
            result.n_requests / (result.makespan_ns * 1e-9)
        )
        assert report.goodput_rps <= report.throughput_rps + 1e-9
        assert 0.0 <= report.slo_attainment <= 1.0

    def test_explicit_slo_controls_goodput(self):
        _, result = _run()
        cluster = Cluster([get_workload("resnet18")], fleet="yoco:4")
        generous = summarize(result, cluster, slo_ms=1e6)
        brutal = summarize(result, cluster, slo_ms=1e-6)
        assert generous.slo_attainment == pytest.approx(1.0)
        assert brutal.slo_attainment == pytest.approx(0.0)
        assert brutal.goodput_rps == pytest.approx(0.0)


class TestInputErrors:
    """A Request tuple and the equal columns fail, or replay, identically."""

    MODELS = ("mobilebert", "resnet18")

    @staticmethod
    def _columns(requests):
        """The columnar twin of a request tuple, built column by column."""
        from repro.serve.traces import TraceColumns

        models = sorted({r.model for r in requests})
        tenants = sorted({r.tenant for r in requests})
        return TraceColumns(
            [r.arrival_ns for r in requests],
            [models.index(r.model) for r in requests],
            models,
            seq_len=[r.seq_len for r in requests],
            decode_tokens=[r.decode_tokens for r in requests],
            request_id=[r.request_id for r in requests],
            tenant_code=[tenants.index(r.tenant) for r in requests],
            tenant_names=tenants,
        )

    @classmethod
    def _requests(cls, first, second, tenant=""):
        """Request 1 carries the ``first`` fault, request 2 the ``second``."""
        from repro.serve import Request

        plain = dict(model="mobilebert", tenant=tenant)
        return tuple(
            Request(request_id=i, arrival_ns=float(i), **{**plain, **fault})
            for i, fault in enumerate(({}, first, second, {}))
        )

    @pytest.mark.parametrize(
        "engine_kwargs,first,second,message",
        [
            (
                {}, dict(model="vgg16"), dict(decode_tokens=3),
                "trace request for 'vgg16' but cluster hosts",
            ),
            (
                "tenancy", dict(tenant="ghost"), dict(model="vgg16"),
                "trace request tagged 'ghost' but the tenancy config declares",
            ),
            (
                {}, dict(decode_tokens=4), dict(model="vgg16"),
                "trace request carries decode_tokens but the engine has no "
                "decode loop",
            ),
            (
                "decode", dict(model="resnet18", decode_tokens=4),
                dict(model="vgg16"),
                "decode request for 'resnet18' but the workload has no "
                "token axis",
            ),
        ],
        ids=["unknown-model", "unknown-tenant", "no-decode-loop", "no-token-axis"],
    )
    def test_same_first_error_for_both_inputs(
        self, engine_kwargs, first, second, message
    ):
        from repro.serve import DecodeConfig, TenancyConfig, Tenant

        tenant = ""
        if engine_kwargs == "tenancy":
            engine_kwargs = dict(tenancy=TenancyConfig((Tenant("chat"),)))
            tenant = "chat"
        elif engine_kwargs == "decode":
            engine_kwargs = dict(decode=DecodeConfig(mean_tokens=4))
        requests = self._requests(first, second, tenant=tenant)
        columns = self._columns(requests)
        assert columns == requests
        cluster = Cluster([get_workload(m) for m in self.MODELS], fleet="yoco:2")
        errors = []
        for trace in (requests, columns):
            with pytest.raises(ValueError) as err:
                ServingEngine(cluster, **engine_kwargs).run(trace)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(message)

    def test_out_of_order_input_replays_the_stable_sort(self):
        from repro.serve import Request

        requests = tuple(
            Request(request_id=i, model=m, arrival_ns=t)
            for i, (m, t) in enumerate(
                [("resnet18", 3e5), ("mobilebert", 1e5), ("resnet18", 1e5),
                 ("mobilebert", 2e5), ("resnet18", 0.0)]
            )
        )
        cluster = Cluster([get_workload(m) for m in self.MODELS], fleet="yoco:1")
        ordered = tuple(sorted(requests, key=lambda r: r.arrival_ns))
        expected = ServingEngine(cluster).run(ordered)
        assert ServingEngine(cluster).run(requests) == expected
        assert ServingEngine(cluster).run(self._columns(requests)) == expected
