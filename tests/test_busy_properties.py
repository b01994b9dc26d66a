"""Cross-layer invariant: no chip is busy longer than the run lasts.

``chip_busy_ns`` sums each chip's batch service (preempted work included)
and ``makespan_ns`` runs from t=0 to the last batch completion, so every
chip's busy time is at most the makespan.  Hypothesis draws runs on each
engine loop: the single-slot turbo walk, the general loop under
weighted-fair tenancy with preemption, and the decode loop.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    DECODE_DISTS,
    DecodeConfig,
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    Tenant,
    WorkloadConfig,
    simulate_serving,
)
from repro.serve.engine import ServingEngine

seeds = st.integers(min_value=0, max_value=2**20)


def _run(config):
    """``simulate_serving`` plus whether the turbo walk ran it."""
    turbo_calls = []
    turbo = ServingEngine._run_turbo

    def spy(self, *args):
        turbo_calls.append(True)
        return turbo(self, *args)

    with mock.patch.object(ServingEngine, "_run_turbo", spy):
        _, result = simulate_serving(config)
    return result, bool(turbo_calls)


def _assert_busy_within_makespan(result):
    assert result.n_requests > 0
    assert len(result.chip_busy_ns) > 0
    for busy in result.chip_busy_ns:
        assert 0.0 <= busy <= result.makespan_ns


@given(
    seed=seeds,
    rps=st.floats(min_value=2_000.0, max_value=400_000.0),
    chips=st.integers(min_value=1, max_value=4),
    max_batch=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=30, deadline=None)
def test_turbo_walk(seed, rps, chips, max_batch):
    result, turbo = _run(ServingConfig(
        workload=WorkloadConfig(models=("resnet18",), rps=rps,
                                duration_s=0.005, seed=seed),
        fleet=FleetConfig(fleet=f"yoco:{chips}"),
        policy=PolicyConfig(max_batch_size=max_batch),
    ))
    assert turbo
    _assert_busy_within_makespan(result)


@given(
    seed=seeds,
    scale=st.floats(min_value=0.1, max_value=3.0),
    admission=st.sampled_from((None, "slo-aware", "queue-cap:16")),
    fleet=st.sampled_from(("yoco:2,isaac:2", "yoco:1,isaac:1", "isaac:3")),
)
@settings(max_examples=20, deadline=None)
def test_general_loop_weighted_fair_with_preemption(seed, scale, admission, fleet):
    tenants = (
        Tenant("chat", "interactive", weight=4, rps=1_000.0 * scale,
               models=("mobilebert",), seqlen_dist="lognormal"),
        Tenant("vision", "batch", weight=2, rps=16_000.0 * scale,
               models=("resnet18", "mobilenetv3")),
        Tenant("bulk", "best-effort", weight=1, rps=500.0 * scale,
               models=("vit", "mobilebert"), seqlen_dist="uniform"),
    )
    result, turbo = _run(ServingConfig(
        workload=WorkloadConfig(
            models=("mobilebert", "resnet18", "mobilenetv3", "vit"),
            duration_s=0.05, seed=seed, tenants=tenants,
        ),
        fleet=FleetConfig(fleet=fleet),
        policy=PolicyConfig(scheduler="weighted-fair", preemption=True,
                            admission=admission),
    ))
    assert not turbo
    _assert_busy_within_makespan(result)


@given(
    seed=seeds,
    rps=st.floats(min_value=500.0, max_value=12_000.0),
    chips=st.integers(min_value=1, max_value=8),
    mean_tokens=st.integers(min_value=4, max_value=64),
    dist=st.sampled_from(DECODE_DISTS),
)
@settings(max_examples=20, deadline=None)
def test_decode_loop(seed, rps, chips, mean_tokens, dist):
    result, turbo = _run(ServingConfig(
        workload=WorkloadConfig(models=("mobilebert",), rps=rps,
                                duration_s=0.02, seed=seed),
        fleet=FleetConfig(fleet=f"yoco:{chips}"),
        decode=DecodeConfig(dist=dist, mean_tokens=mean_tokens),
    ))
    assert not turbo
    assert result.n_decode_tokens > 0
    _assert_busy_within_makespan(result)
