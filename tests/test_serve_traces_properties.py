"""Property-style invariants of the trace generators (hypothesis).

Every arrival generator, for *any* (kind, rate, duration, seed):

* arrivals are time-sorted, non-negative, and sequentially numbered;
* the empirical rate tracks the requested ``rps`` within tolerance;
* identical seeds replay bit-identically;
* traces are model-independent: merging another model's trace (any
  seed) never perturbs the first model's arrival times, and
  :func:`merge_traces` renumbers stably by time.

The seqlen samplers inherit the same discipline: deterministic per seed,
strictly positive, and mean-anchored.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    SEQLEN_DISTS,
    TRACE_KINDS,
    make_trace,
    merge_traces,
    sample_seqlens,
)
from repro.serve.traces import uniform_trace

#: Rates/durations sized so every (kind, rps, duration) pair yields enough
#: arrivals for a rate check but stays fast under hypothesis' example count.
_KINDS = st.sampled_from(TRACE_KINDS)
_SEEDS = st.integers(0, 2**31)
_RPS = st.floats(500.0, 20000.0)
_DURATIONS = st.floats(0.02, 0.2)


class TestArrivalInvariants:
    @given(kind=_KINDS, seed=_SEEDS, rps=_RPS, duration=_DURATIONS)
    @settings(max_examples=40, deadline=None)
    def test_sorted_nonnegative_in_horizon_and_numbered(
        self, kind, seed, rps, duration
    ):
        trace = make_trace(kind, "m", rps=rps, duration_s=duration, seed=seed)
        arrivals = [r.arrival_ns for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= t <= duration * 1e9 for t in arrivals)
        assert [r.request_id for r in trace] == list(range(len(trace)))
        assert all(r.model == "m" and r.seq_len == 0 for r in trace)

    @given(kind=_KINDS, seed=_SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_empirical_rate_tracks_requested_rps(self, kind, seed):
        rps, duration = 5000.0, 0.2
        trace = make_trace(kind, "m", rps=rps, duration_s=duration, seed=seed)
        expected = rps * duration  # 1000 arrivals
        if kind == "bursty":
            # The MMPP's per-seed count variance is dominated by burst/calm
            # phase imbalance (~20 dwell phases per horizon), so for *any*
            # seed only the construction-guaranteed envelope holds: the
            # modulated rate never leaves [rps*(1-b), rps*(1+b)], b=0.8.
            # (The seeded statistical check lives in test_serve_traces.)
            assert 0.1 * expected <= len(trace) <= 2.0 * expected
        else:
            # +-20 % is >6 sigma for Poisson/thinned streams at n=1000.
            assert len(trace) == pytest.approx(expected, rel=0.2)

    @given(kind=_KINDS, seed=_SEEDS, rps=_RPS, duration=_DURATIONS)
    @settings(max_examples=25, deadline=None)
    def test_identical_seed_identical_trace(self, kind, seed, rps, duration):
        a = make_trace(kind, "m", rps=rps, duration_s=duration, seed=seed)
        b = make_trace(kind, "m", rps=rps, duration_s=duration, seed=seed)
        assert a == b


class TestUniformCount:
    """The deterministic generator owes exactly round(rps * duration).

    ``int()`` of the product used to drop the final arrival whenever
    float rounding landed it an ULP under an integer (0.29 * 100.0 ->
    28.999... -> 28 requests instead of 29).
    """

    @given(
        rps=st.floats(1.0, 20000.0),
        duration=st.floats(0.001, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_is_rounded_product(self, rps, duration):
        trace = uniform_trace("m", rps, duration)
        assert len(trace) == round(rps * duration)

    def test_ulp_under_integer_regression(self):
        # 0.29 * 100.0 == 28.999999999999996: truncation shed a request.
        assert 0.29 * 100.0 < 29.0
        assert len(uniform_trace("m", 0.29, 100.0)) == 29
        # 0.7 * 10 == 6.999999999999999: same shape, different scale.
        assert len(uniform_trace("m", 0.7, 10.0)) == 7

    def test_exact_products_unchanged(self):
        # The call-site products the serving goldens rest on are exact
        # floats, so the int -> round change must not move them.
        for rps, duration, n in (
            (1000.0, 0.01, 10),
            (100.0, 0.01, 1),
            (100.0, 0.05, 5),
            (1000.0, 0.02, 20),
        ):
            assert len(uniform_trace("m", rps, duration)) == n


class TestModelIndependence:
    @given(kind=_KINDS, seed_a=_SEEDS, seed_b=_SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_merging_never_perturbs_a_models_arrivals(
        self, kind, seed_a, seed_b
    ):
        a = make_trace(kind, "model_a", rps=2000, duration_s=0.05, seed=seed_a)
        b = make_trace(kind, "model_b", rps=2000, duration_s=0.05, seed=seed_b)
        merged = merge_traces(a, b)
        assert len(merged) == len(a) + len(b)
        assert [r.arrival_ns for r in merged if r.model == "model_a"] == [
            r.arrival_ns for r in a
        ]
        assert [r.arrival_ns for r in merged if r.model == "model_b"] == [
            r.arrival_ns for r in b
        ]

    @given(kind=_KINDS, seed_a=_SEEDS, seed_b=_SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_merge_is_time_sorted_and_renumbered(self, kind, seed_a, seed_b):
        a = make_trace(kind, "model_a", rps=1000, duration_s=0.05, seed=seed_a)
        b = make_trace(kind, "model_b", rps=1000, duration_s=0.05, seed=seed_b)
        merged = merge_traces(a, b)
        arrivals = [r.arrival_ns for r in merged]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in merged] == list(range(len(merged)))

    @given(kind=_KINDS, seed=_SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_merge_is_stable_and_idempotent_on_one_trace(self, kind, seed):
        a = make_trace(kind, "m", rps=1000, duration_s=0.05, seed=seed)
        assert merge_traces(a) == a


class TestSeqlenSamplerInvariants:
    @given(
        dist=st.sampled_from(SEQLEN_DISTS),
        seed=_SEEDS,
        mean=st.integers(16, 4096),
        n=st.integers(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_deterministic_sized_and_positive(self, dist, seed, mean, n):
        a = sample_seqlens(dist, n, mean=mean, seed=seed)
        b = sample_seqlens(dist, n, mean=mean, seed=seed)
        assert a == b
        assert len(a) == n
        assert all(isinstance(s, int) and s >= 1 for s in a)

    @given(
        dist=st.sampled_from(SEQLEN_DISTS),
        seed=_SEEDS,
        mean=st.integers(64, 2048),
    )
    @settings(max_examples=30, deadline=None)
    def test_mean_is_anchored(self, dist, seed, mean):
        lens = sample_seqlens(dist, 4000, mean=mean, seed=seed)
        assert sum(lens) / len(lens) == pytest.approx(mean, rel=0.2)

    @given(seed=_SEEDS, mean=st.integers(64, 2048))
    @settings(max_examples=30, deadline=None)
    def test_samplers_are_seed_sensitive(self, seed, mean):
        a = sample_seqlens("lognormal", 100, mean=mean, seed=seed)
        b = sample_seqlens("lognormal", 100, mean=mean, seed=seed + 1)
        assert a != b
