"""Unit and invariant tests of the closed-loop client model."""

import pytest

from repro.models.zoo import get_workload
from repro.serve import (
    BatchingPolicy,
    Cluster,
    FleetConfig,
    ServingConfig,
    ServingEngine,
    WorkloadConfig,
    estimated_saturation_clients,
    simulate_serving,
)
from repro.serve.admission import QueueDepthCap
from repro.serve.clients import ClientPopulation, ClosedLoopDriver, RetryPolicy


def _cluster(n_chips=2, model="resnet18"):
    return Cluster([get_workload(model)], fleet=f"yoco:{n_chips}")


def _population(**kwargs):
    defaults = dict(
        models=("resnet18",), n_clients=4, think_time_ms=1.0, horizon_s=0.02
    )
    defaults.update(kwargs)
    return ClientPopulation(**defaults)


class TestPopulationValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError, match="at least one model"):
            _population(models=())
        with pytest.raises(ValueError, match="n_clients"):
            _population(n_clients=0)
        with pytest.raises(ValueError, match="think_time_ms"):
            _population(think_time_ms=-1.0)
        with pytest.raises(ValueError, match="think dist"):
            _population(think_dist="gaussian")
        with pytest.raises(ValueError, match="horizon_s"):
            _population(horizon_s=0.0)
        with pytest.raises(ValueError, match="seqlen dist"):
            _population(seqlen_dist="nope")

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        policy = RetryPolicy(backoff_ms=1.0, multiplier=2.0)
        assert policy.backoff_ns(1) == 1e6
        assert policy.backoff_ns(3) == 4e6  # 1 ms * 2^(3-1)


class TestClosedLoopInvariants:
    def test_runs_replay_bit_identically(self):
        population = _population(n_clients=8)
        cluster = _cluster()
        a = ServingEngine(cluster).run(clients=population)
        b = ServingEngine(cluster).run(clients=population)
        assert a.served == b.served
        assert a.makespan_ns == b.makespan_ns
        assert a.clients is population and a.n_clients == 8

    def test_single_session_never_overlaps_itself(self):
        result = ServingEngine(_cluster(1)).run(
            clients=_population(n_clients=1, think_time_ms=0.1)
        )
        ordered = sorted(result.served, key=lambda s: s.request.arrival_ns)
        assert len(ordered) > 5  # the loop actually looped
        for prev, nxt in zip(ordered, ordered[1:]):
            # Blocking: the next request only arises after completion.
            assert nxt.request.arrival_ns >= prev.finish_ns

    def test_inflight_concurrency_never_exceeds_the_population(self):
        population = _population(n_clients=6, think_time_ms=0.05)
        result = ServingEngine(_cluster(2)).run(clients=population)
        events = []
        for s in result.served:
            events.append((s.request.arrival_ns, 1))
            events.append((s.finish_ns, -1))
        inflight = 0
        # Completions release before same-instant arrivals engage.
        for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
            inflight += delta
            assert inflight <= population.n_clients

    def test_no_arrival_past_the_horizon(self):
        population = _population(n_clients=8, horizon_s=0.01)
        result = ServingEngine(_cluster()).run(clients=population)
        assert result.served  # the horizon admitted work at all
        for s in result.served:
            assert s.request.arrival_ns <= population.horizon_ns

    def test_fixed_think_time_is_exact(self):
        population = _population(
            n_clients=1, think_dist="fixed", think_time_ms=1.0
        )
        result = ServingEngine(_cluster(1)).run(clients=population)
        ordered = sorted(result.served, key=lambda s: s.request.arrival_ns)
        assert ordered[0].request.arrival_ns == 1e6  # one think, then issue
        for prev, nxt in zip(ordered, ordered[1:]):
            assert nxt.request.arrival_ns == pytest.approx(
                prev.finish_ns + 1e6
            )

    def test_trace_and_clients_are_mutually_exclusive(self):
        from repro.serve.traces import fixed_trace

        engine = ServingEngine(_cluster())
        trace = fixed_trace("resnet18", [0.0])
        with pytest.raises(ValueError, match="not both"):
            engine.run(trace, clients=_population())

    def test_unknown_client_model_raises(self):
        engine = ServingEngine(_cluster(model="resnet18"))
        with pytest.raises(ValueError, match="cluster hosts"):
            engine.run(clients=_population(models=("alexnet",)))


class TestRetryWithBackoff:
    def _run(self, retry):
        population = _population(
            n_clients=32,
            think_time_ms=0.01,
            horizon_s=0.01,
            retry=retry,
        )
        engine = ServingEngine(
            _cluster(1),
            BatchingPolicy(max_batch_size=4),
            admission=QueueDepthCap(max_depth=2),
        )
        return engine.run(clients=population)

    def test_retries_recover_some_rejections(self):
        dropped = self._run(None)
        retried = self._run(RetryPolicy(max_retries=4, backoff_ms=0.05))
        assert dropped.n_retries == 0
        assert retried.n_retries > 0
        assert dropped.n_rejections == dropped.n_dropped
        # Every drop burned its full retry budget (or hit the horizon).
        assert all(r.attempts >= 1 for r in retried.rejected)
        assert any(r.attempts > 1 for r in retried.rejected)

    def test_served_plus_dropped_counts_stay_consistent(self):
        result = self._run(RetryPolicy(max_retries=2, backoff_ms=0.05))
        assert result.n_offered == result.n_requests + result.n_dropped
        assert 0.0 <= result.rejection_rate <= 1.0
        assert result.n_rejections == result.n_retries + result.n_dropped

    def test_retry_keeps_the_original_arrival_stamp(self):
        """Latency must stay client-perceived across retry attempts."""
        population = _population(
            retry=RetryPolicy(max_retries=2, backoff_ms=1.0)
        )
        driver = ClosedLoopDriver(population, {"resnet18": 0})
        first = driver.start()[0]
        issued = driver.n_issued
        outcome = driver.on_reject(first.request_id, 5e6)
        # The same request re-enters (on its own row, arrival intact):
        # the driver issues nothing new.
        assert outcome.retry_at_ns == 5e6 + 1e6
        assert outcome.next_request is None
        assert driver.n_issued == issued

    def test_zero_think_population_cannot_livelock_a_shedding_policy(self):
        """The reject cooldown guarantees simulated time advances even
        when sessions re-issue instantly after a drop."""
        population = _population(
            n_clients=16, think_time_ms=0.0, horizon_s=0.005
        )
        engine = ServingEngine(
            _cluster(1),
            BatchingPolicy(max_batch_size=4),
            admission=QueueDepthCap(max_depth=2),
        )
        result = engine.run(clients=population)  # must terminate
        assert result.n_dropped > 0
        assert result.n_requests > 0


def _closed_loop_run(model, **workload):
    return simulate_serving(
        config=ServingConfig(
            workload=WorkloadConfig(
                models=(model,), think_time_ms=0.5, seed=0, **workload
            ),
            fleet=FleetConfig(fleet="yoco:1"),
        )
    )


class TestClosedLoopSeqlens:
    def test_fixed_dist_pins_every_request_to_the_mean(self):
        report, result = _closed_loop_run(
            "gpt_large", clients=2, duration_s=0.02,
            seqlen_dist="fixed", seqlen_mean=128,
        )
        assert result.served
        assert all(s.seq_len == 128 for s in result.served)
        assert report.has_tokens

    def test_lognormal_draws_clamp_to_the_top_bucket(self):
        _, result = _closed_loop_run(
            "gpt_large", clients=4, duration_s=0.02,
            seqlen_dist="lognormal", seqlen_mean=64,
        )
        assert result.served
        top = max(result.policy.seqlen_buckets)
        assert all(0 < s.seq_len <= top for s in result.served)

    def test_cnn_requests_stay_native_shape(self):
        _, result = _closed_loop_run(
            "resnet18", clients=2, duration_s=0.01, seqlen_dist="lognormal"
        )
        assert result.served
        assert all(s.seq_len == 0 for s in result.served)


class TestDriverBookkeeping:
    def test_driver_issues_and_maps_requests(self):
        population = _population(n_clients=3, think_dist="fixed")
        driver = ClosedLoopDriver(population, {"resnet18": 0})
        initial = driver.start()
        assert len(initial) == 3
        assert driver.n_issued == 3
        follow = driver.on_complete(initial[0].request_id, 2e6)
        assert follow is not None and follow.request_id == 3
        assert driver.n_issued == 4

    def test_driver_retires_sessions_past_the_horizon(self):
        population = _population(
            n_clients=1, think_dist="fixed", think_time_ms=30.0, horizon_s=0.02
        )
        driver = ClosedLoopDriver(population, {"resnet18": 0})
        assert driver.start() == ()  # first think already beyond horizon


class TestSaturationEstimate:
    def test_scales_with_hosts_and_think_time(self):
        small = estimated_saturation_clients(_cluster(1), think_time_ms=1.0)
        wide = estimated_saturation_clients(_cluster(4), think_time_ms=1.0)
        patient = estimated_saturation_clients(_cluster(1), think_time_ms=10.0)
        assert wide == pytest.approx(4 * small)
        assert patient > small
        assert small > 1.0  # at least the hosts themselves

    def test_defaults_to_every_cluster_model(self):
        cluster = Cluster(
            [get_workload("resnet18"), get_workload("alexnet")], fleet="yoco:2"
        )
        both = estimated_saturation_clients(cluster, think_time_ms=1.0)
        one = estimated_saturation_clients(
            cluster, models=["resnet18"], think_time_ms=1.0
        )
        assert both > one
