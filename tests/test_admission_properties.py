"""Property-style invariants of the admission policies (hypothesis).

The two contract-level properties the issue pins down, plus supporting
invariants, over randomized traces, cluster sizes and policy parameters:

* **accept-all is the no-op** — running with the explicit
  :class:`AcceptAll` policy is indistinguishable, object for object, from
  running with no admission layer at all;
* **shedding never hurts the requests it accepts** — under a
  zero-window batching policy (dispatch happens as soon as a chip frees),
  the p99 latency of the *accepted* requests under a *backlog-aware*
  shedding policy (queue-cap, slo-aware) is bounded by the accept-all
  latencies of the same trace, interpolated at the accepted set's p99
  rank moved up by the number of requests shed.  The accept-all p99
  itself is no bound: shedding a request from below the p99 moves the
  smaller set's interpolated rank up the order statistics.  The mapped
  bound is exact while no accepted request is slowed, and shedding can
  still reshape the greedy batches enough to break it on rare draws (4
  of 20,000 random queue-cap runs, all on 3 chips; see ROADMAP's
  standing invariants).  Two scope restrictions are essential, not
  cosmetic: with a batching window, shedding one request out of a full
  batch can leave the rest waiting out the timer; and the token bucket
  is excluded because rate limiting reshapes batches (steady thinning
  yields smaller, less wave-amortized batches) instead of trimming
  backlog — hypothesis finds real sub-percent p99 regressions for it,
  which is a finding about eager size-greedy batching, not a bug;
* conservation — every offered request is served or dropped, exactly
  once, under every policy; since PR 6 also *per tenant*, under every
  scheduler, with the preemption requeue path in play;
* the token bucket never admits more than ``burst + rate * horizon``
  requests, whatever the trace throws at it.

Engine runs are deterministic, so every property is exact (no statistical
tolerance anywhere except the float-safe p99 comparison).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import (
    SCHEDULERS,
    BatchingPolicy,
    Cluster,
    ServingEngine,
    Tenant,
    TenancyConfig,
    percentile,
    tenant_traces,
)
from repro.serve.admission import (
    AcceptAll,
    QueueDepthCap,
    SloAwareShedding,
    TenantTokenBucket,
    TokenBucket,
)
from repro.serve.traces import poisson_trace
from repro.models.zoo import get_workload

_SEEDS = st.integers(0, 2**31)
_RPS = st.floats(20000.0, 120000.0)  # well past 1-2 chip saturation
_CHIPS = st.integers(1, 3)

#: Short horizon keeps each engine run cheap under hypothesis' budget.
_DURATION_S = 0.01


def _cluster(n_chips: int) -> Cluster:
    return Cluster([get_workload("resnet18")], fleet=f"yoco:{n_chips}")


def _run(n_chips, trace, admission, window_ns=0.0):
    cluster = _cluster(n_chips)
    policy = BatchingPolicy(max_batch_size=8, window_ns=window_ns)
    engine = ServingEngine(cluster, policy, admission=admission)
    return engine.run(trace)


class TestAcceptAllIsTheNoOp:
    @given(seed=_SEEDS, rps=_RPS, chips=_CHIPS)
    @settings(max_examples=25, deadline=None)
    def test_accept_all_equals_no_admission_object_for_object(
        self, seed, rps, chips
    ):
        trace = poisson_trace("resnet18", rps, _DURATION_S, seed=seed)
        bare = _run(chips, trace, admission=None, window_ns=200_000.0)
        gated = _run(chips, trace, admission=AcceptAll(), window_ns=200_000.0)
        assert bare.served == gated.served
        assert bare.chip_busy_ns == gated.chip_busy_ns
        assert bare.makespan_ns == gated.makespan_ns
        assert bare.n_batches == gated.n_batches
        assert gated.rejected == () and gated.n_rejections == 0


def _mapped_p99(accept_all: list, n_accepted: int) -> float:
    """The accept-all order statistic the accepted set's p99 rank maps to.

    With ``n_shed`` requests shed and none slowed, the accepted set's
    ``i``-th smallest latency is at most the accept-all ``(i + n_shed)``-th,
    so its p99, interpolated at rank ``0.99 * (n_accepted - 1)``, is at
    most the sorted accept-all latencies interpolated at that rank plus
    ``n_shed``.  The fractional part is the accepted set's own, so the
    interpolation weights match :func:`percentile`'s bit for bit.
    """
    n_shed = len(accept_all) - n_accepted
    rank = 0.99 * (n_accepted - 1)
    lower = int(rank)
    frac = rank - lower
    upper = min(lower + 1, n_accepted - 1)
    return (
        float(accept_all[lower + n_shed]) * (1.0 - frac)
        + float(accept_all[upper + n_shed]) * frac
    )


#: Backlog-aware shedders: reject only what queueing already condemned.
_BACKLOG_AWARE = [
    ("queue-cap-4", lambda: QueueDepthCap(max_depth=4)),
    ("queue-cap-16", lambda: QueueDepthCap(max_depth=16)),
    ("slo-aware", lambda: SloAwareShedding()),
]

#: All shedding policies, for the policy-agnostic conservation laws.
_ALL_POLICIES = _BACKLOG_AWARE + [
    ("token-bucket", lambda: TokenBucket(rate_rps=20000.0, burst=8.0)),
]


@pytest.mark.parametrize(
    "make_policy",
    [p for _, p in _BACKLOG_AWARE],
    ids=[name for name, _ in _BACKLOG_AWARE],
)
class TestSheddingNeverHurtsTheAccepted:
    # Draws where the accepted p99 exceeds the accept-all p99 itself, each
    # with one request shed from below the p99 and none slowed: queue-cap-16,
    # queue-cap-4 and slo-aware found them.  Each runs under every policy.
    @example(seed=1784441, rps=67073.0, chips=3)
    @example(seed=34058, rps=20000.0, chips=1)
    @example(seed=24827, rps=92216.0, chips=3)
    @given(seed=_SEEDS, rps=_RPS, chips=_CHIPS)
    @settings(max_examples=15, deadline=None)
    def test_accepted_p99_bounded_by_mapped_accept_all_rank(
        self, make_policy, seed, rps, chips
    ):
        trace = poisson_trace("resnet18", rps, _DURATION_S, seed=seed)
        if not trace:
            return
        full = _run(chips, trace, admission=None)
        shed = _run(chips, trace, admission=make_policy())
        if not shed.served:
            return  # everything shed: nothing to compare
        p99_shed = percentile([s.latency_ns for s in shed.served], 99)
        bound = _mapped_p99(
            sorted(s.latency_ns for s in full.served),
            n_accepted=len(shed.served),
        )
        assert p99_shed <= bound * (1 + 1e-12)


@pytest.mark.parametrize(
    "make_policy",
    [p for _, p in _ALL_POLICIES],
    ids=[name for name, _ in _ALL_POLICIES],
)
class TestConservation:
    @given(seed=_SEEDS, rps=_RPS, chips=_CHIPS)
    @settings(max_examples=15, deadline=None)
    def test_every_offered_request_served_or_dropped_once(
        self, make_policy, seed, rps, chips
    ):
        trace = poisson_trace("resnet18", rps, _DURATION_S, seed=seed)
        result = _run(chips, trace, admission=make_policy())
        served = [s.request.request_id for s in result.served]
        dropped = [r.request.request_id for r in result.rejected]
        assert len(served) == len(set(served))
        assert len(dropped) == len(set(dropped))
        assert sorted(served + dropped) == [r.request_id for r in trace]
        # Open loop has no retries: every rejection is a drop.
        assert result.n_rejections == result.n_dropped
        assert result.n_retries == 0


class TestTokenBucketRateBound:
    @given(
        seed=_SEEDS,
        rps=_RPS,
        rate=st.floats(1000.0, 30000.0),
        burst=st.floats(1.0, 32.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_admissions_never_exceed_burst_plus_refill(
        self, seed, rps, rate, burst
    ):
        trace = poisson_trace("resnet18", rps, _DURATION_S, seed=seed)
        result = _run(
            1, trace, admission=TokenBucket(rate_rps=rate, burst=burst)
        )
        horizon_s = max((r.arrival_ns for r in trace), default=0.0) * 1e-9
        assert result.n_requests <= burst + rate * horizon_s + 1e-6


class TestSloAwareSlack:
    @given(seed=_SEEDS, rps=_RPS, chips=_CHIPS)
    @settings(max_examples=15, deadline=None)
    def test_infinite_slo_sheds_nothing(self, seed, rps, chips):
        trace = poisson_trace("resnet18", rps, _DURATION_S, seed=seed)
        result = _run(
            chips, trace, admission=SloAwareShedding(slo_ms=1e9)
        )
        assert result.rejected == ()
        assert result.n_requests == len(trace)


class TestTenantConservation:
    """PR 6: conservation holds *per tenant* under every scheduler.

    Each generated request must end in exactly one of served/dropped for
    its own tenant — across fifo/strict-priority/weighted-fair, with a
    per-tenant token bucket shedding one tenant's excess, and with the
    preemption requeue path exercised (a preempted batch's requests must
    come back and finish, never duplicate, never vanish).
    """

    @given(
        seed=_SEEDS,
        rps=_RPS,
        chips=_CHIPS,
        scheduler=st.sampled_from(SCHEDULERS),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_tenant_request_served_or_dropped_once(
        self, seed, rps, chips, scheduler
    ):
        config = TenancyConfig(
            (
                # The tight absolute deadline makes preemption reachable.
                Tenant(
                    "chat",
                    "interactive",
                    weight=4.0,
                    rps=rps / 4.0,
                    deadline_ms=0.08,
                ),
                Tenant("bulk", "batch", rps=rps),
            ),
            scheduler=scheduler,
            preemption=True,
        )
        trace, _ = tenant_traces(
            config,
            _DURATION_S,
            seed,
            default_models=("resnet18",),
            native_seq_len={"resnet18": get_workload("resnet18").seq_len},
        )
        cluster = _cluster(chips)
        engine = ServingEngine(
            cluster,
            BatchingPolicy(max_batch_size=8, window_ns=0.0),
            admission=TenantTokenBucket(
                {"bulk": TokenBucket(rate_rps=rps / 2.0, burst=8.0)}
            ),
            tenancy=config,
        )
        result = engine.run(trace)
        for name in config.names:
            offered = [r.request_id for r in trace if r.tenant == name]
            served = [
                s.request.request_id for s in result.for_tenant(name)
            ]
            dropped = [
                r.request.request_id
                for r in result.rejected_for_tenant(name)
            ]
            assert len(served) == len(set(served))
            assert len(dropped) == len(set(dropped))
            assert sorted(served + dropped) == offered
        # Tags partition the whole run: no request escapes its tenant.
        assert len(result.served) + len(result.rejected) == len(trace)
        # Only the bucketed tenant can be shed.
        assert result.rejected_for_tenant("chat") == ()
