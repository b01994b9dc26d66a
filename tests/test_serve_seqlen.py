"""Sequence-length-aware serving: samplers, bucketing, per-bucket costs.

The acceptance scenario of the seqlen PR: a seqlen-varying run of
``repro serve`` on an LLM workload reports tokens/s, per-token energy and
padding overhead; fixed-seqlen (degenerate-distribution) runs reproduce
the pre-seqlen numbers exactly; CNN workloads are untouched by every
seqlen knob.
"""

import pytest

from repro.models import at_seq_len, get_workload
from repro.models.workload import LayerKind
from repro.serve import (
    BatchingPolicy,
    Cluster,
    EventLog,
    FleetConfig,
    PolicyConfig,
    Request,
    SEQLEN_DISTS,
    ServingConfig,
    ServingEngine,
    WorkloadConfig,
    format_serving,
    lifecycle_tracer,
    sample_seqlens,
    simulate_serving,
    summarize,
    with_seqlens,
)
from repro.serve.traces import (
    fixed_seqlens,
    fixed_trace,
    lognormal_seqlens,
    longtail_seqlens,
    uniform_seqlens,
    uniform_trace,
)
from repro.serve.batching import ModelQueue, bucket_for, default_buckets


class TestAtSeqLen:
    def test_identity_on_native_length_and_cnns(self):
        gpt = get_workload("gpt_large")
        assert at_seq_len(gpt, gpt.seq_len) is gpt
        assert at_seq_len(gpt, 0) is gpt
        resnet = get_workload("resnet18")
        assert at_seq_len(resnet, 512) is resnet

    def test_weight_footprint_is_seqlen_invariant(self):
        gpt = get_workload("gpt_large")
        for s in (64, 333, 2048):
            derived = at_seq_len(gpt, s)
            assert derived.total_weight_bytes == gpt.total_weight_bytes
            assert derived.seq_len == s
            assert derived.name == gpt.name

    def test_token_axes_scale_and_weight_axes_do_not(self):
        gpt = get_workload("gpt_large")
        derived = at_seq_len(gpt, 256)
        by_name = {l.name: l for l in derived.layers}
        q = by_name["layer0.q_proj"]
        assert (q.gemm.m, q.gemm.k, q.gemm.n) == (256, 1280, 1280)
        score = by_name["layer0.attn_score"]
        assert (score.gemm.m, score.gemm.n) == (256, 256)
        assert score.gemm.k == 1280 // 20  # head_dim untouched
        ctx = by_name["layer0.attn_context"]
        assert (ctx.gemm.m, ctx.gemm.k) == (256, 256)

    def test_mobilebert_hidden_width_survives(self):
        """MobileBERT's hidden width equals its native seq_len (128) — the
        kind-driven rewrite must not confuse the two."""
        mb = get_workload("mobilebert")
        derived = at_seq_len(mb, 64)
        by_name = {l.name: l for l in derived.layers}
        entry = by_name["layer0.bottleneck_in"]
        assert (entry.gemm.m, entry.gemm.k, entry.gemm.n) == (64, 512, 128)
        q = by_name["layer0.q_proj"]
        assert (q.gemm.m, q.gemm.k, q.gemm.n) == (64, 128, 128)
        assert derived.total_weight_bytes == mb.total_weight_bytes

    def test_classifier_heads_keep_batch_one_shape(self):
        llama = at_seq_len(get_workload("llama3_7b"), 128)
        head = next(l for l in llama.layers if l.kind == LayerKind.FC)
        assert head.gemm.m == 1

    def test_compute_grows_with_context(self):
        gpt = get_workload("gpt_large")
        short = at_seq_len(gpt, 128)
        long = at_seq_len(gpt, 2048)
        assert short.total_macs < gpt.total_macs < long.total_macs
        # Attention is quadratic in seq, projections linear: the dynamic
        # fraction must grow with context length.
        assert long.attention_fraction > short.attention_fraction

    def test_negative_seq_len_rejected(self):
        with pytest.raises(ValueError):
            at_seq_len(get_workload("gpt_large"), -1)


class TestSamplers:
    @pytest.mark.parametrize("dist", SEQLEN_DISTS)
    def test_deterministic_positive_and_sized(self, dist):
        a = sample_seqlens(dist, 200, mean=512, seed=7)
        b = sample_seqlens(dist, 200, mean=512, seed=7)
        assert a == b
        assert len(a) == 200
        assert all(s >= 1 for s in a)

    def test_fixed_is_degenerate(self):
        assert fixed_seqlens(5, 512) == (512,) * 5

    def test_uniform_bounds_and_mean(self):
        lens = uniform_seqlens(4000, mean=512, seed=0)
        assert all(256 <= s <= 768 for s in lens)
        assert sum(lens) / len(lens) == pytest.approx(512, rel=0.05)

    def test_lognormal_mean_and_skew(self):
        lens = lognormal_seqlens(6000, mean=512, seed=0)
        mean = sum(lens) / len(lens)
        assert mean == pytest.approx(512, rel=0.1)
        # Right-skew: the median sits below the mean.
        assert sorted(lens)[len(lens) // 2] < mean

    def test_longtail_is_trace_kind_specific_and_capped(self):
        bursty = longtail_seqlens(4000, mean=512, seed=0, trace_kind="bursty")
        steady = longtail_seqlens(4000, mean=512, seed=0, trace_kind="uniform")
        assert max(bursty) <= 8 * 512
        # The overall mean stays anchored despite the tail...
        assert sum(bursty) / len(bursty) == pytest.approx(512, rel=0.15)
        # ...and bursty arrivals carry far more long contexts (the tail
        # probabilities are 15 % vs 3 %).
        tail_mass = lambda xs: sum(1 for x in xs if x >= 2.5 * 512) / len(xs)
        assert tail_mass(bursty) > 2 * tail_mass(steady)
        with pytest.raises(ValueError):
            longtail_seqlens(10, mean=512, trace_kind="sawtooth")
        with pytest.raises(ValueError):
            longtail_seqlens(10, mean=512, max_factor=1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_seqlens("zipf", 10, mean=512)
        with pytest.raises(ValueError):
            sample_seqlens("fixed", 10, mean=0)
        with pytest.raises(ValueError):
            sample_seqlens("fixed", -1, mean=512)

    def test_with_seqlens_attaches_and_validates(self):
        trace = uniform_trace("gpt_large", rps=100, duration_s=0.05)
        lens = sample_seqlens("lognormal", len(trace), mean=512, seed=1)
        tagged = with_seqlens(trace, lens)
        assert [r.seq_len for r in tagged] == list(lens)
        assert [r.arrival_ns for r in tagged] == [r.arrival_ns for r in trace]
        with pytest.raises(ValueError):
            with_seqlens(trace, lens[:-1])
        with pytest.raises(ValueError):
            Request(request_id=0, model="m", arrival_ns=0.0, seq_len=-1)


class TestBuckets:
    def test_bucket_for_picks_smallest_cover(self):
        buckets = (128, 256, 512)
        assert bucket_for(1, buckets) == 128
        assert bucket_for(128, buckets) == 128
        assert bucket_for(129, buckets) == 256
        assert bucket_for(512, buckets) == 512
        with pytest.raises(ValueError):
            bucket_for(513, buckets)

    def test_native_sentinel_bypasses_buckets(self):
        assert bucket_for(0, (128, 256)) == 0
        assert bucket_for(400, ()) == 0

    def test_default_buckets_cover_the_max(self):
        assert default_buckets(1000) == (32, 64, 128, 256, 512, 1024)
        assert default_buckets(32) == (32,)
        assert default_buckets(33) == (32, 64)
        with pytest.raises(ValueError):
            default_buckets(0)

    def test_policy_validates_buckets(self):
        with pytest.raises(ValueError):
            BatchingPolicy(seqlen_buckets=(256, 128))
        with pytest.raises(ValueError):
            BatchingPolicy(seqlen_buckets=(0, 128))
        assert BatchingPolicy().seqlen_buckets == ()

    def test_bucket_overflow_fails_before_the_run(self, tmp_path, monkeypatch):
        # Only the 1,001st request outgrows the largest bucket; the run
        # must refuse the trace before simulating (or tracing) anything.
        lens = [32] * 1000 + [100]
        trace = with_seqlens(
            uniform_trace("mobilebert", 100_000.0, len(lens) / 100_000.0), lens
        )
        priced = []
        service = Cluster.service
        monkeypatch.setattr(
            Cluster, "service", lambda *a: priced.append(a) or service(*a)
        )
        engine = ServingEngine(
            Cluster([get_workload("mobilebert")], fleet="yoco:1"),
            BatchingPolicy(seqlen_buckets=(32, 64)),
        )
        path = tmp_path / "trace.jsonl"
        with pytest.raises(ValueError) as raised:
            engine.run(trace, log=EventLog([lifecycle_tracer(str(path))]))
        with pytest.raises(ValueError) as expected:
            bucket_for(100, (32, 64))
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == "seq_len 100 exceeds the largest bucket 64"
        assert not path.exists()
        assert not priced

    def test_bucketed_batch_runs_at_its_bucket(self):
        queue = ModelQueue([0.0] * 3, [200, 100, 256], (128, 256))
        for row in range(3):
            queue.push(row)
        policy = BatchingPolicy(max_batch_size=3, window_ns=0.0)
        # Rows 0 and 2 share the 256 bucket; row 1 waits in bucket 128.
        assert queue.pop_batch(0.0, policy) == ([1], 128)
        assert queue.pop_batch(0.0, policy) == ([0, 2], 256)

    def test_unbucketed_batch_pads_to_its_max(self):
        queue = ModelQueue([0.0, 0.0], [100, 300])
        queue.push(0)
        queue.push(1)
        policy = BatchingPolicy(max_batch_size=2, window_ns=0.0)
        assert queue.pop_batch(0.0, policy) == ([0, 1], 300)


class TestBucketedQueue:
    def _policy(self):
        return BatchingPolicy(
            max_batch_size=2, window_ns=1e6, seqlen_buckets=(128, 256)
        )

    def test_only_same_bucket_requests_cobatch(self):
        policy = self._policy()
        queue = ModelQueue([0.0, 1.0, 2.0], [100, 200, 120], policy.seqlen_buckets)
        for row in range(3):
            queue.push(row)
        assert len(queue) == 3
        # Bucket 128 fills first (rows 0 and 2) even though row 1 arrived
        # in between.
        assert queue.pop_batch(10.0, policy) == ([0, 2], 128)
        assert queue.pop_batch(11.0, policy) == ([1], 256)

    def test_expired_window_beats_a_full_rival_bucket(self):
        """Anti-starvation: once the oldest request's window expires, its
        bucket dispatches even while another bucket is full — a steady
        short-prompt stream must not starve a rare long-context request."""
        policy = self._policy()
        arrivals = [0.0, 5.0, 5.0, 20.0, 20.0]
        queue = ModelQueue(arrivals, [256, 64, 64, 64, 64], policy.seqlen_buckets)
        for row in range(3):
            queue.push(row)
        # Inside the window the full 128-bucket wins...
        assert queue.pop_batch(10.0, policy) == ([1, 2], 128)
        queue.push(3)
        queue.push(4)
        # ...but past the long request's deadline, its bucket goes first
        # even though the short bucket is full again.
        deadline = 0.0 + policy.window_ns
        assert queue.pop_batch(deadline, policy) == ([0], 256)

    def test_long_request_latency_is_window_bounded_under_short_flood(self):
        """End-to-end: one long-context request inside a flood of short
        ones dispatches within its batching window, not after the flood."""
        cluster = Cluster([get_workload("qdqbert")], fleet="yoco:1")
        window_ns = 50_000.0
        policy = BatchingPolicy(
            max_batch_size=4, window_ns=window_ns, seqlen_buckets=(64, 512)
        )
        arrivals = [0.0] + [float(10 + i) for i in range(200)]
        lens = [512] + [32] * 200
        trace = with_seqlens(fixed_trace("qdqbert", arrivals), lens)
        result = ServingEngine(cluster, policy).run(trace)
        long_req = next(s for s in result.served if s.seq_len == 512)
        shorts_before = sum(
            1
            for s in result.served
            if s.seq_len == 32 and s.dispatch_ns < long_req.dispatch_ns
        )
        # The long request queues for at most its window plus the one
        # short batch that may occupy the chip when the window expires —
        # not behind the whole 200-request flood.
        short_batch_ns = cluster.service(0, "qdqbert", 4, 64).latency_ns
        assert long_req.queue_ns <= window_ns + short_batch_ns
        assert shorts_before <= 2 * policy.max_batch_size

    def test_window_keys_off_globally_oldest(self):
        policy = self._policy()
        queue = ModelQueue([10.0, 20.0], [200, 100], policy.seqlen_buckets)
        queue.push(0)
        queue.push(1)
        assert queue.window_deadline_ns(policy) == pytest.approx(10.0 + 1e6)
        assert not queue.ready(5.0, policy)
        # At the deadline the oldest request's bucket dispatches first.
        rows, _ = queue.pop_batch(queue.window_deadline_ns(policy), policy)
        assert rows == [0]


def _seqlen_run(models, n_chips, buckets=None, mode="batched", **workload):
    return simulate_serving(
        config=ServingConfig(
            workload=WorkloadConfig(models=models, **workload),
            fleet=FleetConfig(fleet=f"yoco:{n_chips}:{mode}"),
            policy=PolicyConfig(seqlen_buckets=buckets),
        )
    )


class TestServingWithSeqlens:
    def test_llm_run_reports_token_metrics(self):
        report, result = _seqlen_run(
            ("gpt_large",), 2, rps=40, seqlen_dist="lognormal"
        )
        assert report.has_tokens
        assert report.tokens_per_s > 0
        assert report.energy_per_token_nj > 0
        assert 0.0 <= report.padding_overhead < 1.0
        stats = report.per_model[0]
        assert stats.mean_seq_len > 0
        assert stats.tokens_per_s == pytest.approx(report.tokens_per_s)
        text = format_serving(report)
        for token in ("token goodput", "energy/token", "padding overhead",
                      "tok/s", "nJ/tok", "pad%"):
            assert token in text

    def test_batches_never_mix_buckets(self):
        _, result = _seqlen_run(
            ("gpt_large",), 2, rps=200, duration_s=0.2,
            seqlen_dist="lognormal",
        )
        by_batch = {}
        for s in result.served:
            by_batch.setdefault((s.chip_id, s.dispatch_ns), []).append(s)
        for batch in by_batch.values():
            assert len({s.padded_seq_len for s in batch}) == 1
            for s in batch:
                assert 0 < s.seq_len <= s.padded_seq_len

    def test_padded_tokens_reconcile(self):
        _, result = _seqlen_run(
            ("gpt_large",), 2, rps=100, seqlen_dist="uniform"
        )
        assert result.total_tokens == sum(r.seq_len for r in (s.request for s in result.served))
        assert result.total_padded_tokens >= result.total_tokens
        assert result.padding_overhead == pytest.approx(
            (result.total_padded_tokens - result.total_tokens)
            / result.total_padded_tokens
        )

    def test_longer_buckets_cost_more(self):
        gpt = get_workload("gpt_large")
        cluster = Cluster([gpt], fleet="yoco:1")
        short = cluster.service(0, "gpt_large", 1, 256)
        native = cluster.service(0, "gpt_large", 1, 0)
        long = cluster.service(0, "gpt_large", 1, 2048)
        assert short.latency_ns < native.latency_ns < long.latency_ns
        assert short.energy_pj < native.energy_pj < long.energy_pj

    def test_bucket_cost_table_is_cached(self):
        gpt = get_workload("gpt_large")
        cluster = Cluster([gpt], fleet="yoco:2")
        a = cluster.workload_at("gpt_large", 256)
        b = cluster.workload_at("gpt_large", 256)
        assert a is b
        assert cluster.workload_at("gpt_large", 0) is gpt
        assert cluster.workload_at("gpt_large", gpt.seq_len) is gpt
        # Identical replicas share one cost row per (batch, bucket), and
        # the native length is the seq_len=0 row.
        table = cluster.service_table("gpt_large")
        assert table.get(0, 1, 256) is table.get(1, 1, 256)
        assert table.get(0, 1, gpt.seq_len) is table.get(1, 1, 0)

    def test_native_seq_len_accessor(self):
        cluster = Cluster(
            [get_workload("gpt_large"), get_workload("resnet18")], fleet="yoco:1"
        )
        assert cluster.native_seq_len("gpt_large") == 1024
        assert cluster.native_seq_len("resnet18") == 0

    def test_pipelined_mode_is_seqlen_aware(self):
        report, _ = _seqlen_run(
            ("qdqbert",), 2, rps=200, mode="pipelined", seqlen_dist="uniform"
        )
        assert report.has_tokens
        assert report.tokens_per_s > 0


class TestExactReproduction:
    """The degenerate paths reproduce pre-seqlen behavior bit-for-bit."""

    def test_no_dist_is_bit_identical_format(self):
        report, result = _seqlen_run(("gpt_large",), 2, rps=40)
        assert not report.has_tokens
        assert not result.has_seqlens
        text = format_serving(report)
        assert "token goodput" not in text
        assert "tok/s" not in text

    def test_fixed_dist_reproduces_native_numbers_exactly(self):
        base, base_result = _seqlen_run(("gpt_large",), 2, rps=40)
        fixed, fixed_result = _seqlen_run(
            ("gpt_large",), 2, rps=40, seqlen_dist="fixed"
        )
        assert [s.latency_ns for s in base_result.served] == [
            s.latency_ns for s in fixed_result.served
        ]
        assert [s.energy_pj for s in base_result.served] == [
            s.energy_pj for s in fixed_result.served
        ]
        assert fixed.throughput_rps == base.throughput_rps
        assert fixed.energy_per_request_uj == base.energy_per_request_uj
        # ... and the token columns appear with zero padding waste.
        assert fixed.has_tokens
        assert fixed.padding_overhead == 0.0

    def test_cnn_is_unaffected_by_every_seqlen_knob(self):
        base, _ = _seqlen_run(("resnet18",), 4, rps=2000)
        knobbed, result = _seqlen_run(
            ("resnet18",), 4, rps=2000,
            seqlen_dist="lognormal", buckets=(128, 256),
        )
        assert format_serving(base) == format_serving(knobbed)
        assert all(s.seq_len == 0 for s in result.served)

    def test_mixed_cnn_llm_traffic(self):
        report, result = _seqlen_run(
            ("resnet18", "qdqbert"), 2, rps=400, seqlen_dist="lognormal"
        )
        by_model = {m.model: m for m in report.per_model}
        assert by_model["resnet18"].mean_seq_len == 0.0
        assert by_model["qdqbert"].mean_seq_len > 0.0
        for s in result.served:
            if s.request.model == "resnet18":
                assert s.seq_len == 0 and s.padded_seq_len == 0


class TestValidation:
    def test_unknown_dist_rejected(self):
        with pytest.raises(ValueError):
            _seqlen_run(("gpt_large",), 1, rps=40, seqlen_dist="zipf")

    def test_explicit_buckets_clamp_like_a_max_context(self):
        """The largest explicit bucket is the serving max context: longer
        samples are clamped to it, never rejected."""
        _, result = _seqlen_run(
            ("gpt_large",), 1, rps=40,
            seqlen_dist="lognormal", buckets=(64, 128),
        )
        assert result.n_requests > 0
        assert all(0 < s.seq_len <= 128 for s in result.served)
        assert all(s.padded_seq_len in (64, 128) for s in result.served)

    def test_engine_rejects_seqlen_beyond_buckets(self):
        cluster = Cluster([get_workload("gpt_large")], fleet="yoco:1")
        policy = BatchingPolicy(seqlen_buckets=(128,))
        trace = with_seqlens(fixed_trace("gpt_large", [0.0]), [512])
        with pytest.raises(ValueError):
            ServingEngine(cluster, policy).run(trace)

    def test_summarize_tokens_against_manual_roll_up(self):
        cluster = Cluster([get_workload("qdqbert")], fleet="yoco:1")
        policy = BatchingPolicy(
            max_batch_size=2, window_ns=0.0, seqlen_buckets=(128, 256)
        )
        trace = with_seqlens(
            fixed_trace("qdqbert", [0.0, 1.0, 2.0]), [100, 120, 200]
        )
        result = ServingEngine(cluster, policy).run(trace)
        report = summarize(result, cluster)
        tokens = 100 + 120 + 200
        assert report.tokens_per_s == pytest.approx(
            tokens / (result.makespan_ns * 1e-9)
        )
        assert report.energy_per_token_nj == pytest.approx(
            result.total_energy_pj * 1e-3 / tokens
        )
