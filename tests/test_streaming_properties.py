"""Property: a streamed run is the unstreamed run, and conserves requests.

Every run lands its completions in one served record, and a
``StreamingMetrics`` only reads it.  Hypothesis sweeps seed, offered
rate, fleet (homogeneous chip counts and mixed yoco+isaac fleets),
batch cap and batching window, across plain, admission-shedding,
tenants-with-preemption and decode runs, and checks that

* the streamed ``ServingResult`` (``served`` included) equals the
  unstreamed one, and
* ``n_requests + n_dropped`` equals the offered count, recomputed from
  the trace generators on their own.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.zoo import get_workload
from repro.serve import (
    DecodeConfig,
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    ServingConfig,
    StreamingMetrics,
    TenancyConfig,
    WorkloadConfig,
    make_trace,
    parse_tenants,
    simulate_serving,
    tenant_traces,
)

DURATION_S = 0.01
FLEETS = (
    FleetConfig(fleet="yoco:1"),
    FleetConfig(fleet="yoco:2"),
    FleetConfig(fleet="yoco:4"),
    FleetConfig(fleet="yoco:1,isaac:1"),
    FleetConfig(fleet="yoco:2,isaac:2"),
)


@st.composite
def scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rps = draw(st.floats(min_value=1000.0, max_value=40_000.0))
    kind = draw(st.sampled_from(("plain", "shedding", "tenants", "decode")))
    policy = PolicyConfig(
        max_batch_size=draw(st.integers(min_value=1, max_value=8)),
        window_ms=draw(st.sampled_from((0.0, 0.05, 0.2))),
        admission="queue-cap:4" if kind == "shedding" else None,
    )
    models = ("mobilebert",) if kind == "decode" else ("resnet18", "mobilebert")
    tenants = None
    if kind == "tenants":
        tenants = (
            f"chat:interactive:w=4:poisson@{rps / 4:.0f},"
            f"bulk:best-effort:poisson@{rps:.0f}"
        )
        policy = dataclasses.replace(
            policy, scheduler="weighted-fair", preemption=True
        )
    return ServingConfig(
        workload=WorkloadConfig(
            models=models, rps=rps, duration_s=DURATION_S, seed=seed,
            tenants=tenants,
        ),
        fleet=draw(st.sampled_from(FLEETS)),
        policy=policy,
        decode=DecodeConfig(dist="lognormal") if kind == "decode" else None,
    )


def _offered(config: ServingConfig) -> int:
    """Requests the run's trace offers, from the trace generators alone."""
    w = config.workload
    if w.tenants is None:
        return sum(
            len(make_trace("poisson", m, w.rps / len(w.models), DURATION_S,
                           seed=w.seed + i))
            for i, m in enumerate(w.models)
        )
    trace, _ = tenant_traces(
        TenancyConfig(parse_tenants(w.tenants)), DURATION_S, w.seed,
        default_models=w.models,
        native_seq_len={m: get_workload(m).seq_len for m in w.models},
    )
    return len(trace)


@given(config=scenarios())
@settings(max_examples=25, deadline=None)
def test_streamed_result_equals_unstreamed_and_conserves(config):
    _, result = simulate_serving(config)
    stream = StreamingMetrics()
    _, streamed = simulate_serving(
        dataclasses.replace(config, observe=ObserveConfig(stream_metrics=stream))
    )
    assert streamed == result
    assert streamed.served == result.served
    assert stream.n_served == result.n_requests
    assert result.n_requests + result.n_dropped == _offered(config)
