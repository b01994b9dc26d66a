"""Property-based invariants of the decode sampler and decode runs.

Hypothesis sweeps the decode knob space the way
``test_observe_properties`` sweeps observers: the sampler contracts
(determinism, clamping, flooring, page rounding) hold for *any* knob
combination, and short end-to-end runs conserve tokens and keep every
per-request timing stamp ordered regardless of distribution, seed or
batching cap.  Every served request's KV bytes are its own context's
paged footprint summed over its tokens, on the in-place and the logged
per-iteration decode paths alike.
"""

import dataclasses
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import get_workload
from repro.serve import (
    DECODE_DISTS,
    Cluster,
    DecodeConfig,
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
    sample_decode_lens,
    simulate_serving,
)
from repro.serve.decode import page_round

dists = st.sampled_from(DECODE_DISTS)
seeds = st.integers(min_value=0, max_value=2**20)
# The longtail shape needs enough mean to fund its tail (it rejects
# tiny means), so the sweep floors at 4 tokens.
means = st.integers(min_value=4, max_value=128)


class TestSampler:
    @given(dist=dists, mean=means, seed=seeds, n=st.integers(0, 64))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_floored_and_sized(self, dist, mean, seed, n):
        config = DecodeConfig(dist=dist, mean_tokens=mean)
        lens = sample_decode_lens(config, n, seed=seed)
        assert lens == sample_decode_lens(config, n, seed=seed)
        assert len(lens) == n
        assert all(v >= 1 for v in lens)

    @given(dist=dists, mean=means, seed=seeds, cap=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_cap_clamps_and_only_clamps(self, dist, mean, seed, cap):
        config = DecodeConfig(dist=dist, mean_tokens=mean)
        capped = DecodeConfig(dist=dist, mean_tokens=mean, max_tokens=cap)
        free = sample_decode_lens(config, 32, seed=seed)
        lens = sample_decode_lens(capped, 32, seed=seed)
        assert all(v <= cap for v in lens)
        # The cap is a pure clamp on the same draw, never a re-draw.
        assert lens == tuple(max(1, min(v, cap)) for v in free)

    @given(mean=means, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_fixed_dist_is_constant_at_the_mean(self, mean, seed):
        lens = sample_decode_lens(
            DecodeConfig(dist="fixed", mean_tokens=mean), 16, seed=seed
        )
        assert lens == (mean,) * 16


class TestPageRound:
    @given(ctx=st.integers(1, 10_000), page=st.integers(1, 256))
    @settings(max_examples=100, deadline=None)
    def test_rounds_up_to_a_page_multiple(self, ctx, page):
        rounded = page_round(ctx, page)
        assert rounded >= ctx
        assert rounded % page == 0
        assert rounded - ctx < page
        assert page_round(rounded, page) == rounded

    @given(
        a=st.integers(1, 10_000),
        b=st.integers(1, 10_000),
        page=st.integers(1, 256),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_context(self, a, b, page):
        lo, hi = sorted((a, b))
        assert page_round(lo, page) <= page_round(hi, page)


class TestRunInvariants:
    @given(
        dist=dists,
        mean=st.integers(4, 16),
        seed=st.integers(0, 7),
        max_batch=st.sampled_from((1, 4, 16)),
    )
    @settings(max_examples=10, deadline=None)
    def test_tokens_conserve_and_stamps_order(
        self, dist, mean, seed, max_batch
    ):
        _, result = simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(
                    models=("mobilebert",), rps=1000.0, duration_s=0.01,
                    seed=seed,
                ),
                fleet=FleetConfig(fleet="yoco:2"),
                policy=PolicyConfig(max_batch_size=max_batch),
                decode=DecodeConfig(dist=dist, mean_tokens=mean),
            )
        )
        served = result.served
        assert result.n_decode_tokens == sum(s.decode_tokens for s in served)
        if served:
            assert result.n_decode_iters >= max(
                s.decode_tokens for s in served
            )
        assert result.n_decode_iters <= max(1, result.n_decode_tokens)
        for s in served:
            assert s.request.arrival_ns <= s.first_token_ns <= s.finish_ns
            assert s.ttft_ns >= 0 and s.itl_ns >= 0


def _paged_kv_bytes(per_token: int, ctx0: int, tokens: int, page: int) -> float:
    """One request's KV bytes: each token reads its context's paged KV."""
    total = 0.0
    for i in range(tokens):
        total += per_token * page_round(ctx0 + i, page)
    return total


class TestKvBytes:
    @given(
        fleet=st.sampled_from(("yoco:2", "yoco:4")),
        page=st.sampled_from((1, 2, 16, 64)),
        max_batch=st.sampled_from((1, 2, 4)),
        seqlen=st.sampled_from((None, "lognormal")),
        load=st.floats(0.2, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_each_request_pays_its_own_paged_context(
        self, fleet, page, max_batch, seqlen, load, seed
    ):
        chips = int(fleet.split(":")[1])
        config = ServingConfig(
            workload=WorkloadConfig(
                models=("mobilebert",), rps=load * 3000.0 * chips,
                duration_s=0.01, seed=seed, seqlen_dist=seqlen,
            ),
            fleet=FleetConfig(fleet=fleet),
            policy=PolicyConfig(max_batch_size=max_batch),
            decode=DecodeConfig(
                dist="lognormal", mean_tokens=16, page_tokens=page
            ),
        )
        cluster = Cluster([get_workload("mobilebert")], fleet=fleet)
        per_token = cluster.kv_bytes_per_token("mobilebert")
        native = cluster.native_seq_len("mobilebert")
        # An event log turns the in-place decode walk off.
        with tempfile.TemporaryDirectory() as tmp:
            logged = dataclasses.replace(
                config,
                observe=ObserveConfig(trace_file=os.path.join(tmp, "t.jsonl")),
            )
            runs = [simulate_serving(c)[1] for c in (config, logged)]
        for result in runs:
            assert result.n_decode_tokens > 0
            for s in result.served:
                ctx0 = s.request.seq_len or native
                assert s.kv_bytes == _paged_kv_bytes(
                    per_token, ctx0, s.decode_tokens, page
                )
