"""Unit tests of the admission policies and the deadline predictor."""

import pytest

from repro.models.zoo import get_workload
from repro.serve import (
    ADMISSION_POLICIES,
    BatchingPolicy,
    Cluster,
    parse_admission,
)
from repro.serve.admission import (
    AcceptAll,
    QueueDepthCap,
    SloAwareShedding,
    TokenBucket,
)
from repro.serve.cluster import DEFAULT_SLO_MULTIPLE


@pytest.fixture(scope="module")
def cluster():
    return Cluster([get_workload("resnet18")], fleet="yoco:2")


class TestAcceptAll:
    def test_admits_everything(self):
        policy = AcceptAll()
        assert policy.name == "accept-all"
        for depth in (0, 10, 10**6):
            assert policy.admit("resnet18", "", 0.0, depth, depth)


class TestQueueDepthCap:
    def test_admits_below_and_rejects_at_the_cap(self):
        policy = QueueDepthCap(max_depth=4)
        assert policy.admit("resnet18", "", 0.0, 3, 3)
        assert not policy.admit("resnet18", "", 0.0, 0, 4)  # cluster-wide depth
        assert not policy.admit("resnet18", "", 0.0, 9, 9)

    def test_validates_depth(self):
        with pytest.raises(ValueError, match="max_depth"):
            QueueDepthCap(max_depth=0)


class TestTokenBucket:
    def test_burst_then_starve_then_refill(self):
        policy = TokenBucket(rate_rps=1000.0, burst=2.0)
        policy.reset(None, BatchingPolicy())
        assert policy.admit("resnet18", "", 0.0, 0, 0)
        assert policy.admit("resnet18", "", 0.0, 0, 0)
        assert not policy.admit("resnet18", "", 0.0, 0, 0)  # bucket empty
        # 1000 req/s = one token per millisecond.
        assert policy.admit("resnet18", "", 1e6, 0, 0)
        assert not policy.admit("resnet18", "", 1e6, 0, 0)

    def test_refill_never_exceeds_burst(self):
        policy = TokenBucket(rate_rps=1000.0, burst=3.0)
        policy.reset(None, BatchingPolicy())
        # A long quiet period refills to burst, not beyond.
        for _ in range(3):
            assert policy.admit("resnet18", "", 1e9, 0, 0)
        assert not policy.admit("resnet18", "", 1e9, 0, 0)

    def test_reset_rearms_the_bucket(self):
        policy = TokenBucket(rate_rps=1.0, burst=1.0)
        policy.reset(None, BatchingPolicy())
        assert policy.admit("resnet18", "", 0.0, 0, 0)
        assert not policy.admit("resnet18", "", 0.0, 0, 0)
        policy.reset(None, BatchingPolicy())
        assert policy.admit("resnet18", "", 0.0, 0, 0)

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="rate_rps"):
            TokenBucket(rate_rps=0.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate_rps=1.0, burst=0.5)


class TestSloAwareShedding:
    def test_requires_reset_before_use(self):
        with pytest.raises(RuntimeError, match="reset"):
            SloAwareShedding().admit("resnet18", "", 0.0, 0, 0)

    def test_empty_queue_always_admits_under_default_slo(self, cluster):
        policy = SloAwareShedding()
        policy.reset(cluster, BatchingPolicy())
        # Default SLO is 10x the batch-1 floor; an empty queue predicts
        # exactly 1x, so the first request always fits its deadline.
        assert policy.admit("resnet18", "", 0.0, 0, 0)

    def test_deep_backlog_is_shed_and_slo_scales_it(self, cluster):
        policy = SloAwareShedding()
        batching = BatchingPolicy(max_batch_size=1)
        policy.reset(cluster, batching)
        # 2 hosts, batch 1: depth d predicts ceil(d/2)+1 service floors;
        # the default 10x budget drowns at depth 19 but not at 18.
        assert policy.admit("resnet18", "", 0.0, 18, 18)
        assert not policy.admit("resnet18", "", 0.0, 19, 19)
        floor = cluster.reference_latency_ns("resnet18")
        generous = SloAwareShedding(slo_ms=100 * floor * 1e-6)
        generous.reset(cluster, batching)
        assert generous.admit("resnet18", "", 0.0, 19, 19)

    def test_explicit_slo_ms_overrides_the_multiple(self, cluster):
        policy = SloAwareShedding(slo_ms=1e6)
        policy.reset(cluster, BatchingPolicy())
        assert policy.admit("resnet18", "", 0.0, 10**6, 10**6)

    @pytest.mark.parametrize("slo_ms", [None, 1e-6, 0.5, 3.0])
    @pytest.mark.parametrize("max_batch", [1, 3, 8])
    def test_admit_agrees_with_the_predictor_at_every_depth(
        self, cluster, slo_ms, max_batch
    ):
        # The reset-time depth threshold is exact: admit(depth) is the
        # predictor compare itself, across and far past the boundary.
        policy = SloAwareShedding(slo_ms=slo_ms)
        policy.reset(cluster, BatchingPolicy(max_batch_size=max_batch))
        floor = cluster.reference_latency_ns("resnet18")
        slo_ns = DEFAULT_SLO_MULTIPLE * floor if slo_ms is None else slo_ms * 1e6
        for depth in range(1200):
            predicted = cluster.predicted_latency_ns("resnet18", depth, max_batch)
            assert policy.admit("resnet18", "", 0.0, depth, depth) == (
                predicted <= slo_ns
            )

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="slo_ms"):
            SloAwareShedding(slo_ms=0.0)


class TestPredictedLatency:
    def test_empty_queue_predicts_the_batch1_floor(self, cluster):
        floor = cluster.reference_latency_ns("resnet18")
        assert cluster.predicted_latency_ns("resnet18", 0) == floor

    def test_backlog_adds_whole_drain_waves(self, cluster):
        floor = cluster.reference_latency_ns("resnet18")
        # 2 hosts, max_batch 4: 8 queued = 2 batches = 1 wave ahead.
        assert cluster.predicted_latency_ns("resnet18", 8, 4) == 2 * floor
        # 9 queued = 3 batches = 2 waves ahead.
        assert cluster.predicted_latency_ns("resnet18", 9, 4) == 3 * floor

    def test_prediction_is_monotone_in_backlog(self, cluster):
        values = [
            cluster.predicted_latency_ns("resnet18", d, 8) for d in range(50)
        ]
        assert values == sorted(values)

    def test_validates_arguments(self, cluster):
        with pytest.raises(ValueError, match="queued_ahead"):
            cluster.predicted_latency_ns("resnet18", -1)
        with pytest.raises(ValueError, match="max_batch_size"):
            cluster.predicted_latency_ns("resnet18", 0, 0)


class TestParseAdmission:
    def test_round_trips_every_policy_name(self):
        for name in ADMISSION_POLICIES:
            spec = "token-bucket:5000" if name == "token-bucket" else name
            assert parse_admission(spec).name == name

    def test_parameterized_specs(self):
        assert parse_admission("queue-cap:32").max_depth == 32
        bucket = parse_admission("token-bucket:5000:16")
        assert bucket.rate_rps == 5000.0 and bucket.burst == 16.0
        assert parse_admission("slo-aware:2.5").slo_ms == 2.5

    @pytest.mark.parametrize(
        "spec",
        [
            "nope",
            "accept-all:1",
            "queue-cap:abc",
            "queue-cap:1:2",
            "token-bucket",
            "token-bucket:1:2:3",
            "slo-aware:1:2",
            "queue-cap:0",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_admission(spec)
