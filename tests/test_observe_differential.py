"""Golden guard: the observability layer is an exact pass-through.

Replays the PR 3 differential scenarios (``tests/test_hetero_differential``
— imported, not copied, so the harnesses can never drift) with every
renderer attached: a lifecycle trace sink, a windowed metrics recorder
and engine self-profiling.  The formatted reports and the bit-exact
per-request digests must still match the pre-observability goldens byte
for byte, and the :class:`ServingResult` must be object-for-object
identical to the unobserved run — on both the general and the turbo
engine path.

The second half closes the reconstruction loop: the turbo and general
paths must emit the *same event set* (they interleave same-instant
events differently, so the comparison sorts lines, each of which is
unique by rid/chip), a Chrome-format trace must be valid ``trace_event``
JSON, and ``summarize_trace`` must rebuild per-model latency aggregates
that equal the :class:`ServingReport`'s to float equality — not
approximately: every timestamp round-trips JSON at full ``repr``
precision and the percentile interpolation is shared.
"""

import collections
import json

import pytest

from test_hetero_differential import (
    SCENARIOS,
    _golden_text,
    _run,
    replace_in,
    served_digest,
)
from trace_probe import traced_run

from repro.models.zoo import get_workload
from repro.serve import (
    BatchingPolicy,
    Cluster,
    DecodeConfig,
    ElasticConfig,
    EventLog,
    FleetConfig,
    JsonlTraceSink,
    MetricsRecorder,
    ObserveConfig,
    PolicyConfig,
    PowerConfig,
    ServingConfig,
    ServingEngine,
    WorkloadConfig,
    format_serving,
    sample_decode_lens,
    simulate_serving,
    summarize_trace,
    with_decode_lens,
)
from repro.serve.traces import poisson_trace


@pytest.fixture(scope="module")
def golden_digests():
    import pathlib

    data = pathlib.Path(__file__).parent / "data"
    with open(data / "golden_serve_digests.json") as f:
        return json.load(f)


def _observed(config, tmp_path):
    return replace_in(
        config,
        "observe",
        trace_file=str(tmp_path / "trace.jsonl"),
        metrics_file=str(tmp_path / "metrics.csv"),
        profile_engine=True,
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestObservedRunMatchesGolden:
    def test_fully_observed_run_reproduces_golden(
        self, scenario, golden_digests, tmp_path
    ):
        legacy, _ = SCENARIOS[scenario]
        report, result = _run(_observed(legacy, tmp_path))
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "metrics.csv").exists()
        assert result.stats is not None and result.stats.profile is not None

    def test_result_object_identical_with_observers_on(
        self, scenario, tmp_path
    ):
        legacy, _ = SCENARIOS[scenario]
        _, unobserved = _run(legacy)
        _, observed, events = traced_run(_observed(legacy, tmp_path))
        assert observed == unobserved
        assert observed.served == unobserved.served
        # The events genuinely flowed; equality is not vacuous.
        counts = collections.Counter(ev["ev"] for ev in events)
        assert counts["begin"] == 1
        assert counts["end"] == 1
        assert counts["cmp"] >= 1
        assert counts["arr"] == counts["enq"]


def _engine(n_chips=4, **kwargs):
    cluster = Cluster([get_workload("resnet18")], fleet=f"yoco:{n_chips}")
    policy = BatchingPolicy(max_batch_size=8, window_ns=200_000.0)
    return ServingEngine(cluster, policy, **kwargs)


class TestBothEnginePaths:
    """The event log rides the turbo fast path and the general loop alike."""

    TRACE_KW = dict(rps=30_000, duration_s=0.02, seed=0)

    def test_turbo_observed_equals_unobserved(self, tmp_path):
        trace = tuple(poisson_trace("resnet18", **self.TRACE_KW))
        plain = _engine().run(trace)
        log = EventLog([JsonlTraceSink(str(tmp_path / "turbo.jsonl"))])
        observed = _engine(profile=True).run(trace, log=log)
        assert observed == plain
        assert observed.stats.profile is not None

    def test_general_observed_equals_unobserved(self, tmp_path):
        trace = tuple(poisson_trace("resnet18", **self.TRACE_KW))
        plain_engine = _engine()
        plain_engine._force_general = True
        plain = plain_engine.run(trace)
        log = EventLog([JsonlTraceSink(str(tmp_path / "general.jsonl"))])
        observed_engine = _engine(profile=True)
        observed_engine._force_general = True
        observed = observed_engine.run(trace, log=log)
        assert observed == plain
        assert observed.stats.profile is not None

    def test_turbo_and_general_emit_the_same_events(self, tmp_path):
        """Same event *set*: the two paths interleave same-instant
        completions and dispatches differently, so compare sorted lines
        (each line is unique — rids and chip ids disambiguate)."""
        trace = tuple(poisson_trace("resnet18", **self.TRACE_KW))
        turbo_path = tmp_path / "turbo.jsonl"
        general_path = tmp_path / "general.jsonl"
        turbo = _engine().run(
            trace, log=EventLog([JsonlTraceSink(str(turbo_path))])
        )
        general_engine = _engine()
        general_engine._force_general = True
        general = general_engine.run(
            trace, log=EventLog([JsonlTraceSink(str(general_path))])
        )
        assert turbo == general  # sanity: the runs themselves agree
        turbo_lines = sorted(turbo_path.read_text().splitlines())
        general_lines = sorted(general_path.read_text().splitlines())
        assert turbo_lines == general_lines

    def test_profile_counters_account_for_every_event(self):
        trace = tuple(poisson_trace("resnet18", **self.TRACE_KW))
        engine = _engine(profile=True)
        result = engine.run(trace)
        prof = result.stats.profile
        assert sum(n for _, n in prof.events_by_kind) == result.stats.n_events
        assert dict(prof.events_by_kind)["arrival"] == len(trace)
        assert prof.heap_peak >= 1
        assert sum(
            rounds for _, rounds in prof.dispatch_scan_hist
        ) == result.stats.n_dispatch_rounds

    @pytest.mark.parametrize("run", ["decode", "elastic_general"])
    def test_general_loop_profile_counts_every_completion(self, run):
        """Completions held in the engine's pending slot skip the event
        heap; they must still count, once each, as events."""
        if run == "decode":
            decode = DecodeConfig(dist="lognormal", mean_tokens=8)
            prompts = poisson_trace("mobilebert", 4000, 0.02, seed=0)
            trace = with_decode_lens(
                prompts, sample_decode_lens(decode, len(prompts), seed=0)
            )
            engine = ServingEngine(
                Cluster([get_workload("mobilebert")], fleet="yoco:4"),
                BatchingPolicy(), profile=True, decode=decode,
            )
        else:
            trace = tuple(poisson_trace("resnet18", **self.TRACE_KW))
            engine = _engine(
                n_chips=8, profile=True,
                elastic=ElasticConfig(min_chips=1, max_chips=8),
            )
            engine._force_general = True
        result = engine.run(trace)
        stats, prof = result.stats, result.stats.profile
        kinds = dict(prof.events_by_kind)
        assert sum(kinds.values()) == stats.n_events
        assert kinds["arrival"] == len(trace)
        assert kinds["completion"] == stats.n_batches + result.n_decode_iters
        assert len(result.served) == len(trace)
        if run == "decode":
            assert result.n_decode_iters > 0
        else:
            assert result.elastic.actions
        # A round scans at least one slot in each of its one or more passes.
        passes = sum(n for _, n in prof.dispatch_scan_hist)
        assert stats.n_slot_scans >= passes >= stats.n_dispatch_rounds


class TestChromeTrace:
    def test_traced_run_exports_valid_trace_event_json(self, tmp_path):
        path = tmp_path / "trace.json"
        simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(
                    models=("resnet18", "alexnet"),
                    rps=4000.0,
                    duration_s=0.05,
                    seed=0,
                ),
                fleet=FleetConfig(fleet="yoco:4"),
                observe=ObserveConfig(trace_file=str(path)),
            )
        )
        with open(path) as f:
            doc = json.load(f)  # malformed JSON raises here
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X"}  # metadata + complete spans, no opens
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0 for e in spans)
        # One chip-track span per batch, on chip pids.
        chip_spans = [e for e in spans if e["pid"] == 1]
        queue_spans = [e for e in spans if e["pid"] == 2]
        assert chip_spans and queue_spans
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"chips", "tenant queues", "events"}

    def test_chrome_trace_rejected_by_summarizer(self, tmp_path):
        path = tmp_path / "trace.json"
        simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(
                    models=("resnet18",), rps=2000.0, duration_s=0.02, seed=0
                ),
                fleet=FleetConfig(fleet="yoco:2"),
                observe=ObserveConfig(trace_file=str(path)),
            )
        )
        with pytest.raises(ValueError, match="Perfetto"):
            summarize_trace(str(path))


class TestTraceSummaryAgreesWithReport:
    """summarize_trace rebuilds the report's floats, not approximations."""

    def _traced_report(
        self, tmp_path, n_chips, policy=PolicyConfig(), decode=None,
        **workload
    ):
        path = tmp_path / "trace.jsonl"
        report, _ = simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(**workload),
                fleet=FleetConfig(fleet=f"yoco:{n_chips}"),
                policy=policy,
                observe=ObserveConfig(trace_file=str(path)),
                decode=decode,
            )
        )
        return report, summarize_trace(str(path))

    def test_per_model_latency_floats_equal(self, tmp_path):
        report, summary = self._traced_report(
            tmp_path,
            models=("resnet18", "alexnet"),
            n_chips=4,
            rps=4000.0,
            duration_s=0.1,
            seed=0,
        )
        assert summary.n_requests == sum(
            m.n_requests for m in report.per_model
        )
        for stats in report.per_model:
            lane = summary.per_model[stats.model]
            assert lane.n == stats.n_requests
            assert lane.p50_ms == stats.p50_ms
            assert lane.p95_ms == stats.p95_ms
            assert lane.p99_ms == stats.p99_ms
            assert lane.mean_ms == stats.mean_ms
            assert lane.max_ms == stats.max_ms

    def test_decode_run_total_is_time_to_first_token(self, tmp_path):
        # A cmp event is the prefill completion, so on a decode run the
        # summary's total latency is the report's TTFT, not its latency.
        report, summary = self._traced_report(
            tmp_path,
            models=("mobilebert",),
            n_chips=4,
            rps=2000.0,
            seed=0,
            decode=DecodeConfig(dist="lognormal"),
        )
        (stats,) = report.per_model
        lane = summary.per_model["mobilebert"]
        assert (lane.p50_ms, lane.p99_ms) == (
            stats.ttft_p50_ms, stats.ttft_p99_ms
        )
        assert lane.p99_ms < stats.p99_ms

    def test_queue_service_split_sums_to_total(self, tmp_path):
        _, summary = self._traced_report(
            tmp_path,
            models=("resnet18",),
            n_chips=2,
            rps=8000.0,
            duration_s=0.05,
            seed=1,
        )
        (lane,) = summary.lanes
        assert lane.queue_mean_ms + lane.service_mean_ms == pytest.approx(
            lane.mean_ms, rel=1e-12
        )
        assert lane.wasted_ms == 0.0 and lane.n_preempted == 0

    def test_tenant_lanes_match_tenant_report(self, tmp_path):
        report, summary = self._traced_report(
            tmp_path,
            models=("resnet18",),
            n_chips=2,
            tenants="chat:interactive:w=4:poisson@3000,"
            "bulk:batch:poisson@6000",
            policy=PolicyConfig(scheduler="weighted-fair"),
            duration_s=0.05,
            seed=0,
        )
        assert summary.has_tenants
        by_tenant = {lane.tenant: lane for lane in summary.lanes}
        assert report.per_tenant
        for stats in report.per_tenant:
            lane = by_tenant[stats.tenant]
            assert lane.n == stats.n_requests
            assert lane.p50_ms == stats.p50_ms
            assert lane.p99_ms == stats.p99_ms

    def test_preemption_wasted_time_reconstructed(self, tmp_path):
        # An 80 us absolute deadline on a saturated chip: unmeetable by
        # waiting, meetable by preempting (the tenancy suite's scenario).
        report, summary = self._traced_report(
            tmp_path,
            models=("resnet18",),
            n_chips=1,
            tenants="chat:interactive:w=4:poisson@2000:deadline=0.08,"
            "bulk:batch:poisson@60000",
            policy=PolicyConfig(scheduler="strict-priority", preemption=True),
            duration_s=0.01,
            seed=0,
        )
        assert report.n_preemptions > 0  # the scenario genuinely preempts
        total_preempts = sum(lane.n_preempted for lane in summary.lanes)
        total_wasted_ms = sum(lane.wasted_ms for lane in summary.lanes)
        assert total_preempts == report.n_preemptions
        assert total_wasted_ms == pytest.approx(
            report.preempted_wasted_ms, rel=1e-9
        )


class TestMetricsRecorder:
    def _record(
        self, path, rps=8000.0, n_chips=2, power=None, admission=None
    ):
        report, result = simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(
                    models=("resnet18",), rps=rps, duration_s=0.05, seed=0
                ),
                fleet=FleetConfig(fleet=f"yoco:{n_chips}", power=power),
                policy=PolicyConfig(admission=admission),
                observe=ObserveConfig(metrics_file=str(path)),
            )
        )
        return report, result

    def _rows(self, tmp_path, **kwargs):
        path = tmp_path / "m.json"
        report, result = self._record(path, **kwargs)
        return report, result, json.loads(path.read_text())

    def test_window_totals_conserve_requests(self, tmp_path):
        _, result, rows = self._rows(tmp_path)
        assert sum(r["completions"] for r in rows) == len(result.served)
        assert sum(r["arrivals"] for r in rows) == result.n_requests
        assert all(0.0 <= r["utilization"] <= 1.0 for r in rows)
        # Rows tile the makespan with no gaps.
        assert [r["t_ms"] for r in rows] == [
            float(i + 1) for i in range(len(rows))
        ]

    def test_rejections_counted(self, tmp_path):
        report, _, rows = self._rows(
            tmp_path, rps=60_000.0, n_chips=1, admission="queue-cap:4"
        )
        assert report.n_dropped > 0  # the cap genuinely sheds
        assert sum(r["rejected"] for r in rows) == report.n_dropped

    def test_power_column_tracks_governor(self, tmp_path):
        _, _, rows = self._rows(
            tmp_path, power=PowerConfig(power_cap_w=100.0)
        )
        watts = [r["power_w"] for r in rows]
        assert all(w is not None and w >= 0.0 for w in watts)
        assert any(w > 0.0 for w in watts)

    def test_csv_and_json_outputs(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        self._record(csv_path)
        _, _, rows = self._rows(tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(MetricsRecorder.COLUMNS)
        assert len(lines) == 1 + len(rows)
        completions = MetricsRecorder.COLUMNS.index("completions")
        assert int(lines[1].split(",")[completions]) == rows[0]["completions"]
