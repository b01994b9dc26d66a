"""Serving metrics: percentiles, SLO/goodput accounting, report format."""

import pytest

from repro.models import get_workload
from repro.serve import (
    BatchingPolicy,
    Cluster,
    ServingEngine,
    ServingReport,
    format_serving,
    percentile,
    summarize,
    with_seqlens,
)
from repro.serve.metrics import ModelServingStats
from repro.serve.traces import fixed_trace, uniform_trace
from repro.serve.cluster import DEFAULT_SLO_MULTIPLE


class TestPercentile:
    def test_interpolates_linearly(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == pytest.approx(25.0)
        assert percentile(values, 75) == pytest.approx(32.5)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


@pytest.fixture(scope="module")
def small_run():
    """A fully deterministic scenario: uniform arrivals, FIFO serving."""
    cluster = Cluster([get_workload("resnet18")], fleet="yoco:2")
    policy = BatchingPolicy(max_batch_size=1, window_ns=0.0)
    trace = uniform_trace("resnet18", rps=1000, duration_s=0.02)
    result = ServingEngine(cluster, policy).run(trace)
    return cluster, result


class TestSummarize:
    def test_counts(self, small_run):
        cluster, result = small_run
        report = summarize(result, cluster)
        assert report.n_requests == 20
        assert report.n_batches == 20
        assert report.mean_batch_size == pytest.approx(1.0)
        assert report.n_chips == 2
        assert report.accelerator == "yoco"

    def test_unqueued_latency_equals_service_time(self, small_run):
        """At 1000 req/s a chip that serves in ~0.04 ms never queues, so
        every latency percentile collapses onto the service latency."""
        cluster, result = small_run
        report = summarize(result, cluster)
        stats = report.per_model[0]
        service_ms = cluster.reference_latency_ns("resnet18") * 1e-6
        assert stats.p50_ms == pytest.approx(service_ms)
        assert stats.p99_ms == pytest.approx(service_ms)
        assert stats.max_ms == pytest.approx(service_ms)

    def test_throughput_equals_offered_load_when_unsaturated(self, small_run):
        cluster, result = small_run
        report = summarize(result, cluster)
        assert report.throughput_rps == pytest.approx(1000.0, rel=0.05)
        assert report.goodput_rps == pytest.approx(report.throughput_rps)

    def test_default_slo_is_multiple_of_service_floor(self, small_run):
        cluster, result = small_run
        report = summarize(result, cluster)
        stats = report.per_model[0]
        assert stats.slo_ms == pytest.approx(
            DEFAULT_SLO_MULTIPLE * cluster.reference_latency_ns("resnet18") * 1e-6
        )

    def test_utilization_reflects_busy_fraction(self, small_run):
        cluster, result = small_run
        report = summarize(result, cluster)
        expected = sum(result.chip_busy_ns) / (
            result.makespan_ns * len(result.chip_busy_ns)
        )
        assert report.mean_chip_utilization == pytest.approx(expected)


class TestFormat:
    def test_report_carries_headline_numbers(self, small_run):
        cluster, result = small_run
        text = format_serving(summarize(result, cluster))
        for token in (
            "cluster",
            "2 x yoco",
            "goodput",
            "energy/request",
            "chip utilization",
            "p99 ms",
            "resnet18",
        ):
            assert token in text

    def test_format_is_deterministic(self, small_run):
        cluster, result = small_run
        a = format_serving(summarize(result, cluster))
        b = format_serving(summarize(result, cluster))
        assert a == b


class TestPercentileSmallSamples:
    def test_p99_with_under_100_samples_interpolates_top_pair(self):
        """With n < 100 samples, p99 lands between the two largest values —
        never above the max, never at the max unless the rank is exact."""
        values = [float(i) for i in range(1, 11)]  # 1..10
        rank = 0.99 * 9  # 8.91
        expected = 9.0 * (1 - 0.91) + 10.0 * 0.91
        assert percentile(values, 99) == pytest.approx(expected)
        assert percentile(values, 99) < max(values)

    def test_percentile_never_exceeds_extremes(self):
        values = [5.0, 1.0, 3.0]
        for q in (0, 1, 50, 99, 100):
            assert min(values) <= percentile(values, q) <= max(values)

    def test_two_samples(self):
        assert percentile([10.0, 20.0], 99) == pytest.approx(19.9)


@pytest.fixture(scope="module")
def one_chip_cluster():
    return Cluster([get_workload("resnet18")], fleet="yoco:1")


class TestSummarizeEdgeCases:
    def test_empty_result(self, one_chip_cluster):
        result = ServingEngine(one_chip_cluster).run(())
        report = summarize(result, one_chip_cluster)
        assert report.n_requests == 0
        assert report.per_model == ()
        assert report.throughput_rps == 0.0
        assert report.goodput_rps == 0.0
        assert report.energy_per_request_uj == 0.0
        assert report.slo_attainment == 1.0  # vacuous: nothing missed
        assert report.tokens_per_s == 0.0
        assert not report.has_tokens
        # The formatter must survive a report with no rows.
        text = format_serving(report)
        assert "requests served   : 0 in 0 batches" in text
        assert "token goodput" not in text

    def test_single_request(self, one_chip_cluster):
        result = ServingEngine(one_chip_cluster).run(
            fixed_trace("resnet18", [0.0])
        )
        report = summarize(result, one_chip_cluster)
        stats = report.per_model[0]
        assert report.n_requests == 1
        # Every percentile of one sample is that sample.
        assert stats.p50_ms == stats.p95_ms == stats.p99_ms == stats.max_ms
        assert stats.mean_ms == pytest.approx(stats.p50_ms)
        assert report.throughput_rps > 0.0

    def test_all_slo_miss(self, one_chip_cluster):
        result = ServingEngine(one_chip_cluster).run(
            fixed_trace("resnet18", [0.0, 10.0, 20.0])
        )
        report = summarize(result, one_chip_cluster, slo_ms=1e-9)
        assert report.slo_attainment == 0.0
        assert report.goodput_rps == 0.0
        assert report.per_model[0].slo_attainment == 0.0
        # Throughput still counts every completed request.
        assert report.throughput_rps > 0.0

    def test_token_fields_zero_without_seqlens(self, one_chip_cluster):
        result = ServingEngine(one_chip_cluster).run(
            fixed_trace("resnet18", [0.0, 1.0])
        )
        report = summarize(result, one_chip_cluster)
        assert report.tokens_per_s == 0.0
        assert report.energy_per_token_nj == 0.0
        assert report.padding_overhead == 0.0
        assert report.per_model[0].mean_seq_len == 0.0

    def test_seqlen_run_summarizes_tokens(self):
        cluster = Cluster([get_workload("qdqbert")], fleet="yoco:1")
        policy = BatchingPolicy(
            max_batch_size=2, window_ns=0.0, seqlen_buckets=(128, 256)
        )
        trace = with_seqlens(
            fixed_trace("qdqbert", [0.0, 1.0, 2.0, 3.0]), [100, 120, 200, 64]
        )
        result = ServingEngine(cluster, policy).run(trace)
        report = summarize(result, cluster)
        assert report.has_tokens
        assert report.per_model[0].mean_seq_len == pytest.approx(121.0)
        # 100+120 pad to 128 each, 200 to 256, 64 to 128.
        assert result.total_padded_tokens == 128 + 128 + 256 + 128
        assert report.padding_overhead == pytest.approx(
            (640 - 484) / 640
        )


def _stats(**overrides):
    base = dict(
        model="gpt_large",
        n_requests=6,
        p50_ms=132.8721,
        p95_ms=167.0474,
        p99_ms=167.0588,
        mean_ms=130.8628,
        max_ms=167.0600,
        mean_batch_size=2.0,
        energy_per_request_uj=20487.246,
        slo_ms=924.8294,
        slo_attainment=1.0,
    )
    base.update(overrides)
    return ModelServingStats(**base)


def _report(per_model, **overrides):
    base = dict(
        accelerator="yoco",
        n_chips=2,
        n_requests=6,
        n_batches=3,
        duration_s=0.210045,
        throughput_rps=28.6,
        goodput_rps=28.6,
        energy_per_request_uj=20487.246,
        mean_batch_size=2.0,
        chip_utilization=(0.92, 0.44),
        per_model=per_model,
    )
    base.update(overrides)
    return ServingReport(**base)


class TestGoldenFormat:
    """Exact rendered text — the column layout is a stable artifact."""

    def test_native_report_format_is_the_pre_seqlen_golden(self):
        text = format_serving(_report((_stats(),)))
        assert text == (
            "cluster           : 2 x yoco\n"
            "requests served   : 6 in 3 batches (mean batch 2.00)\n"
            "simulated horizon : 210.045 ms\n"
            "throughput        : 28.6 req/s\n"
            "goodput (in-SLO)  : 28.6 req/s (100.0 % attainment)\n"
            "energy/request    : 20487.246 uJ\n"
            "chip utilization  : mean 68.0 %  [92%] [44%]\n"
            "\n"
            "model      reqs  p50 ms    p95 ms    p99 ms    mean ms   "
            "SLO ms    attain  uJ/req   \n"
            "---------  ----  --------  --------  --------  --------  "
            "--------  ------  ---------\n"
            "gpt_large  6     132.8721  167.0474  167.0588  130.8628  "
            "924.8294  100.0%  20487.246"
        )

    def test_token_report_format_with_the_new_columns(self):
        stats = _stats(
            mean_seq_len=820.0,
            tokens_per_s=21289.0,
            energy_per_token_nj=29499.393,
            padding_overhead=0.26,
        )
        report = _report(
            (stats,),
            tokens_per_s=21289.0,
            energy_per_token_nj=29499.393,
            padding_overhead=0.26,
        )
        assert report.has_tokens
        text = format_serving(report)
        assert text == (
            "cluster           : 2 x yoco\n"
            "requests served   : 6 in 3 batches (mean batch 2.00)\n"
            "simulated horizon : 210.045 ms\n"
            "throughput        : 28.6 req/s\n"
            "goodput (in-SLO)  : 28.6 req/s (100.0 % attainment)\n"
            "energy/request    : 20487.246 uJ\n"
            "token goodput     : 21289 tok/s\n"
            "energy/token      : 29499.393 nJ\n"
            "padding overhead  : 26.0 % of processed tokens\n"
            "chip utilization  : mean 68.0 %  [92%] [44%]\n"
            "\n"
            "model      reqs  p50 ms    p95 ms    p99 ms    mean ms   "
            "SLO ms    attain  uJ/req     seq  tok/s  nJ/tok     pad% \n"
            "---------  ----  --------  --------  --------  --------  "
            "--------  ------  ---------  ---  -----  ---------  -----\n"
            "gpt_large  6     132.8721  167.0474  167.0588  130.8628  "
            "924.8294  100.0%  20487.246  820  21289  29499.393  26.0%"
        )
