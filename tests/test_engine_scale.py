"""Engine hot-path scaling: guard-rails, streaming mode, turbo path.

Six suites around the million-request refactor:

* the generator-trace regression — ``run`` used to iterate its trace
  twice (validate, then fill), so a generator validated fine and then
  silently simulated zero requests;
* counter-instrumented scaling guard-rails — :class:`EngineStats` work
  counters (no wall clock anywhere) pin the dispatch scan to linear in
  the event count and strictly below the old events x slots product;
* the decode pricing guard-rails — counted ``Cluster.decode_service``
  calls pin decode pricing to one call per distinct cost row;
* the prefill pricing guard-rail — counted ``Cluster.service`` calls do
  the same for prefill, batch-1 floors included;
* the streaming differential — a run with ``stream=StreamingMetrics()``
  must return the retained run's result and report exactly, and its
  rolling p99 must equal the retained p99;
* the turbo differential — the single-slot fast path must replay the
  general event loop byte for byte (``_force_general`` forces the
  general path on an otherwise turbo-eligible run).
"""

import dataclasses

import pytest

from repro.models import get_workload
from repro.serve import (
    BatchingPolicy,
    Cluster,
    DecodeConfig,
    EventLog,
    FleetConfig,
    JsonlTraceSink,
    ObserveConfig,
    PolicyConfig,
    ServingConfig,
    ServingEngine,
    StreamingMetrics,
    WorkloadConfig,
    diurnal_trace,
    merge_traces,
    simulate_serving,
    summarize,
)
from repro.serve.observe import ChromeTraceSink
from repro.serve.traces import poisson_trace

MODELS_8 = (
    "resnet18", "alexnet", "vgg16", "mobilenetv3",
    "densenet201", "vit", "mobilebert", "qdqbert",
)


def _engine(models, n_chips=4, max_batch=8, window_ns=200_000.0, **kwargs):
    cluster = Cluster([get_workload(m) for m in models], fleet=f"yoco:{n_chips}")
    policy = BatchingPolicy(max_batch_size=max_batch, window_ns=window_ns)
    return ServingEngine(cluster, policy, **kwargs), cluster


def _mixed_trace(models, rps_each, duration_s):
    traces = [
        poisson_trace(m, rps=rps_each, duration_s=duration_s, seed=i)
        for i, m in enumerate(models)
    ]
    return merge_traces(*traces) if len(traces) > 1 else traces[0]


class TestGeneratorTrace:
    """Regression: a generator trace must simulate every request."""

    def test_generator_equals_list(self):
        trace = poisson_trace("resnet18", rps=20000, duration_s=0.02, seed=3)
        engine, _ = _engine(["resnet18"])
        from_list = engine.run(trace)
        engine2, _ = _engine(["resnet18"])
        from_gen = engine2.run(r for r in trace)
        assert from_gen.served == from_list.served
        assert from_gen == from_list

    def test_generator_serves_all_requests(self):
        trace = poisson_trace("resnet18", rps=20000, duration_s=0.02, seed=3)
        engine, _ = _engine(["resnet18"])
        result = engine.run(iter(trace))
        assert len(result.served) == len(trace) > 0

    def test_generator_on_general_path_too(self):
        trace = _mixed_trace(["resnet18", "alexnet"], 10000, 0.02)
        engine, _ = _engine(["resnet18", "alexnet"])
        result = engine.run(iter(trace))
        assert len(result.served) == len(trace) > 0


class TestScalingGuardRails:
    """Deterministic work counters: linear in requests, not events x slots.

    Pure counting — no timing anywhere, so the assertions are stable on
    any machine.  ``_force_general`` pins the general event loop (the
    turbo path has no dispatch scan to guard).
    """

    def _general_stats(self, models, rps_each, duration_s, n_chips=4):
        trace = _mixed_trace(models, rps_each, duration_s)
        engine, _ = _engine(models, n_chips=n_chips)
        engine._force_general = True
        return len(trace), engine.run(trace).stats

    def test_slot_scans_linear_in_requests(self):
        """8x the requests => ~8x the slot scans (per-request flat)."""
        n_small, small = self._general_stats(
            ["resnet18", "alexnet"], 10000, 0.05
        )
        n_big, big = self._general_stats(
            ["resnet18", "alexnet"], 10000, 0.4
        )
        assert n_big > 6 * n_small
        per_small = small.n_slot_scans / n_small
        per_big = big.n_slot_scans / n_big
        assert per_big <= 1.2 * per_small
        assert big.n_events / n_big <= 1.2 * (small.n_events / n_small)

    def test_slot_scans_beat_the_events_x_slots_product(self):
        """The old scan examined every slot each dispatch round; indexed
        dirty-slot bookkeeping must stay well below that product."""
        _, stats = self._general_stats(MODELS_8, 20000 / 8, 0.05)
        n_slots = len(MODELS_8)
        assert stats.n_slot_scans <= 0.6 * stats.n_dispatch_rounds * n_slots

    def test_slot_scans_sublinear_in_slot_count(self):
        """Adding idle-ish slots must not multiply the scan work."""
        _, two = self._general_stats(["resnet18", "alexnet"], 10000, 0.05)
        _, eight = self._general_stats(MODELS_8, 20000 / 8, 0.05)
        scans_per_event_2 = two.n_slot_scans / two.n_events
        scans_per_event_8 = eight.n_slot_scans / eight.n_events
        # 4x the slots must cost well under 4x the per-event scan work.
        assert scans_per_event_8 <= 3.0 * scans_per_event_2

    def test_turbo_event_count_linear(self):
        """The fast path processes O(requests) events, no window storms."""
        trace = poisson_trace("resnet18", rps=50000, duration_s=0.05, seed=0)
        engine, _ = _engine(["resnet18"])
        stats = engine.run(trace).stats
        n = len(trace)
        assert stats.n_events <= 2 * n + 2 * stats.n_batches + 2
        assert stats.n_slot_scans <= stats.n_events


class TestDecodePricingGuardRails:
    """Decode prices each distinct cost row once, however long the run.

    A counting wrapper on :meth:`Cluster.decode_service` (no wall clock)
    sees every miss of the flat decode rows.  Each miss must fill a new
    row, so the call count equals the number of distinct rows, and it
    grows with the set of (batch size, page-rounded context) shapes the
    run visits — not with the number of decode iterations.
    """

    def _decode_run(self, monkeypatch, fleet, duration_s, rps=6000.0):
        calls = []
        original = Cluster.decode_service

        def counting(self, chip_id, model, batch_size, context_len):
            # One cost key per chip type on the fleets below, so the chip
            # type stands in for it.
            calls.append(
                (self.chip_type(chip_id), model, batch_size, context_len)
            )
            return original(self, chip_id, model, batch_size, context_len)

        monkeypatch.setattr(Cluster, "decode_service", counting)
        config = ServingConfig(
            workload=WorkloadConfig(
                models=["mobilebert"], rps=rps, duration_s=duration_s
            ),
            fleet=FleetConfig(fleet=fleet),
            decode=DecodeConfig(dist="lognormal", mean_tokens=32),
        )
        _, result = simulate_serving(config=config)
        return calls, result

    def test_uniform_fleet_prices_each_row_once(self, monkeypatch):
        calls, result = self._decode_run(monkeypatch, "yoco:8", 0.1)
        assert result.n_decode_iters > 100 * len(calls)
        assert len(calls) == len(set(calls))

    def test_decode_pricing_flat_in_the_horizon(self, monkeypatch):
        """2x the horizon => ~2x the iterations, nearly the same rows."""
        small_calls, small = self._decode_run(monkeypatch, "yoco:8", 0.1)
        big_calls, big = self._decode_run(monkeypatch, "yoco:8", 0.2)
        assert 1.8 * small.n_decode_iters <= big.n_decode_iters
        assert big.n_decode_iters <= 2.4 * small.n_decode_iters
        assert len(big_calls) == len(set(big_calls))
        assert len(big_calls) <= 1.3 * len(small_calls)

    def test_priced_path_prices_each_row_once(self, monkeypatch):
        """Mixed decode hosts are priced per candidate, still once per row."""
        calls, result = self._decode_run(
            monkeypatch, "yoco:2,isaac:2", 0.1, rps=4000.0
        )
        assert {c[0] for c in calls} == {"yoco", "isaac"}
        assert len(calls) == len(set(calls))


class TestPrefillPricingGuardRails:
    """Prefill prices each distinct cost row once, however many arrivals.

    The twin of :class:`TestDecodePricingGuardRails` for
    :meth:`Cluster.service`.  Slo-aware admission and preemption read the
    batch-1 floor on every arrival; on a mixed fleet that floor is a
    minimum over two cost keys, and it must come from the same rows.
    """

    def test_mixed_fleet_prices_each_row_once(self, monkeypatch):
        calls = []
        original = Cluster.service

        def counting(self, chip_id, model, batch_size, seq_len=0):
            # One cost key per chip type on this fleet.
            calls.append((self.chip_type(chip_id), model, batch_size, seq_len))
            return original(self, chip_id, model, batch_size, seq_len)

        monkeypatch.setattr(Cluster, "service", counting)
        config = ServingConfig(
            workload=WorkloadConfig(
                models=["resnet18", "mobilebert"],
                duration_s=0.1,
                tenants=(
                    "chat:interactive:w=4:model=mobilebert:poisson@3000"
                    ":seqlen=lognormal,"
                    "bulk:best-effort:model=resnet18:poisson@60000"
                ),
            ),
            fleet=FleetConfig(fleet="yoco:2,isaac:2"),
            policy=PolicyConfig(
                admission="slo-aware", scheduler="weighted-fair", preemption=True
            ),
        )
        _, result = simulate_serving(config=config)
        assert result.n_dropped > 0
        assert len(calls) == len(set(calls))


class _CollectingProgress:
    def __init__(self):
        self.lines = []

    def __call__(self, line):
        self.lines.append(line)


class TestStreamingDifferential:
    """stream=StreamingMetrics() vs retained: the same result, bit for bit.

    Both land completions in one served record, so the reports are
    compared exactly on every field, float sums included.
    """

    def _pair(self, models, rps_each, duration_s, n_chips=4, **kwargs):
        trace = tuple(_mixed_trace(models, rps_each, duration_s))
        engine, cluster = _engine(models, n_chips=n_chips, **kwargs)
        retained_result = engine.run(trace)
        retained = summarize(retained_result, cluster)
        engine2, _ = _engine(models, n_chips=n_chips, **kwargs)
        stream = StreamingMetrics()
        streamed_result = engine2.run(trace, stream=stream)
        assert streamed_result == retained_result
        streamed = summarize(streamed_result, cluster)
        return retained, streamed, stream, len(trace)

    def _assert_reports_match(self, retained, streamed):
        assert dataclasses.asdict(streamed) == dataclasses.asdict(retained)

    def _simulated(self, config):
        """(retained, streamed) reports of one config, results equal."""
        report, result = simulate_serving(config)
        streamed_config = dataclasses.replace(
            config, observe=ObserveConfig(stream_metrics=StreamingMetrics())
        )
        streamed_report, streamed = simulate_serving(streamed_config)
        assert streamed == result
        assert streamed.served == result.served
        return report, streamed_report

    def test_turbo_path_stream_matches_retained(self):
        retained, streamed, stream, n = self._pair(["resnet18"], 30000, 0.05)
        self._assert_reports_match(retained, streamed)
        assert stream.n_served == n

    def test_general_path_stream_matches_retained(self):
        retained, streamed, stream, n = self._pair(
            ["resnet18", "alexnet"], 15000, 0.05
        )
        self._assert_reports_match(retained, streamed)
        assert stream.n_served == n

    def test_tenants_on_mixed_fleet_stream_matches_retained(self):
        retained, streamed = self._simulated(
            ServingConfig(
                workload=WorkloadConfig(
                    models=("resnet18", "mobilebert"),
                    duration_s=0.05,
                    tenants="chat:interactive:w=4:poisson@2000,"
                    "bulk:best-effort:poisson@6000",
                ),
                fleet=FleetConfig(fleet="yoco:2,isaac:2"),
                policy=PolicyConfig(scheduler="weighted-fair", preemption=True),
            )
        )
        self._assert_reports_match(retained, streamed)
        assert len(retained.per_tenant) == len(retained.per_chip_type) == 2
        assert all(t.n_requests > 0 for t in retained.per_tenant)
        assert all(t.n_requests > 0 for t in retained.per_chip_type)

    def test_unified_decode_stream_matches_retained(self):
        retained, streamed = self._simulated(
            ServingConfig(
                workload=WorkloadConfig(
                    models=("mobilebert",), rps=4000.0, duration_s=0.03
                ),
                fleet=FleetConfig(fleet="yoco:4"),
                decode=DecodeConfig(dist="lognormal"),
            )
        )
        self._assert_reports_match(retained, streamed)
        assert retained.has_decode and retained.per_model[0].ttft_p99_ms > 0

    def test_closed_loop_clients_stream_matches_retained(self):
        retained, streamed = self._simulated(
            ServingConfig(
                workload=WorkloadConfig(
                    models=("resnet18",), duration_s=0.03, clients=32,
                    think_time_ms=1.0, retry=2,
                ),
                fleet=FleetConfig(fleet="yoco:2"),
                policy=PolicyConfig(admission="queue-cap:4"),
            )
        )
        self._assert_reports_match(retained, streamed)
        assert retained.has_clients and retained.n_requests > 0

    def test_rolling_p99_equals_retained_p99(self):
        retained, _, stream, _ = self._pair(["resnet18"], 30000, 0.05)
        assert stream.rolling_p99_ms() == retained.per_model[0].p99_ms

    def test_streamed_result_equals_retained(self):
        trace = tuple(poisson_trace("resnet18", rps=20000, duration_s=0.02))
        engine, _ = _engine(["resnet18"])
        plain = engine.run(trace)
        result = _engine(["resnet18"])[0].run(trace, stream=StreamingMetrics())
        assert result == plain
        assert result.n_requests == len(result.served) == len(trace)

    def test_one_run_per_instance(self):
        trace = tuple(poisson_trace("resnet18", rps=20000, duration_s=0.01))
        stream = StreamingMetrics()
        engine, _ = _engine(["resnet18"])
        engine.run(trace, stream=stream)
        engine2, _ = _engine(["resnet18"])
        with pytest.raises(RuntimeError, match="exactly one run"):
            engine2.run(trace, stream=stream)

    def test_progress_emits_rolling_p99(self):
        trace = tuple(poisson_trace("resnet18", rps=20000, duration_s=0.02))
        progress = _CollectingProgress()
        stream = StreamingMetrics(progress_every=100, progress=progress)
        engine, _ = _engine(["resnet18"])
        engine.run(trace, stream=stream)
        assert len(progress.lines) >= len(trace) // 100 - 1
        assert all("rolling p99" in line for line in progress.lines)

    def test_bad_progress_every_rejected(self):
        with pytest.raises(ValueError):
            StreamingMetrics(progress_every=-1)


class TestTurboDifferential:
    """The single-slot fast path replays the general loop byte for byte."""

    REGIMES = (
        # (label, rps, duration_s, n_chips, max_batch, window_ns)
        ("steady", 60_000, 0.05, 4, 8, 200_000.0),
        ("saturated", 200_000, 0.02, 2, 8, 200_000.0),
        ("window-dominated", 5_000, 0.05, 4, 8, 200_000.0),
        ("batch-1", 30_000, 0.02, 4, 1, 0.0),
        ("zero-window", 30_000, 0.02, 4, 5, 0.0),
    )

    @pytest.mark.parametrize(
        "label,rps,duration_s,n_chips,max_batch,window_ns",
        REGIMES,
        ids=[r[0] for r in REGIMES],
    )
    def test_turbo_matches_general(
        self, label, rps, duration_s, n_chips, max_batch, window_ns
    ):
        trace = tuple(
            poisson_trace("resnet18", rps=rps, duration_s=duration_s, seed=0)
        )
        turbo_engine, _ = _engine(
            ["resnet18"],
            n_chips=n_chips,
            max_batch=max_batch,
            window_ns=window_ns,
        )
        turbo = turbo_engine.run(trace)
        general_engine, _ = _engine(
            ["resnet18"],
            n_chips=n_chips,
            max_batch=max_batch,
            window_ns=window_ns,
        )
        general_engine._force_general = True
        general = general_engine.run(trace)
        assert turbo.served == general.served
        assert turbo.chip_busy_ns == general.chip_busy_ns
        assert turbo.makespan_ns == general.makespan_ns
        assert turbo.n_batches == general.n_batches
        assert turbo == general

    def test_diurnal_trace_matches(self):
        trace = tuple(
            diurnal_trace("resnet18", rps=80_000, duration_s=0.1, seed=0)
        )
        turbo_engine, _ = _engine(["resnet18"], n_chips=8)
        general_engine, _ = _engine(["resnet18"], n_chips=8)
        general_engine._force_general = True
        assert turbo_engine.run(trace) == general_engine.run(trace)

    def test_round_robin_routing_stays_general(self):
        """round-robin differs per dispatch; the gate must not take it."""
        trace = tuple(
            poisson_trace("resnet18", rps=30_000, duration_s=0.02, seed=0)
        )
        engine, _ = _engine(["resnet18"], routing="round-robin")
        forced, _ = _engine(["resnet18"], routing="round-robin")
        forced._force_general = True
        assert engine.run(trace) == forced.run(trace)


class TestTraceSizeGuard:
    """Lifecycle tracing streams to the sink; nothing accumulates.

    Same guard-rail style as :class:`TestScalingGuardRails` — the sinks
    carry deterministic counters (``n_events`` / ``bytes_written`` /
    ``max_open_spans``), so the linearity assertions are exact counting,
    no wall clock, no RSS sampling.  A million-request trace must cost
    file bytes, not resident memory.
    """

    def _traced(self, duration_s, sink):
        trace = tuple(
            poisson_trace("resnet18", rps=30_000, duration_s=duration_s, seed=0)
        )
        engine, _ = _engine(["resnet18"])
        engine.run(trace, log=EventLog([sink]))
        return len(trace)

    def test_jsonl_bytes_per_request_flat_across_8x(self, tmp_path):
        """8x the requests => ~8x the bytes; per-request cost is flat."""
        small = JsonlTraceSink(str(tmp_path / "small.jsonl"))
        n_small = self._traced(0.02, small)
        big = JsonlTraceSink(str(tmp_path / "big.jsonl"))
        n_big = self._traced(0.16, big)
        assert n_big > 6 * n_small
        assert big.bytes_written / n_big <= 1.2 * (
            small.bytes_written / n_small
        )
        assert big.n_events / n_big <= 1.2 * (small.n_events / n_small)

    def test_jsonl_sink_retains_no_event_list(self, tmp_path):
        """The sink's only per-run state is the bounded name caches."""
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        n = self._traced(0.08, sink)
        assert sink.n_events > n  # the events genuinely flowed through
        for value in vars(sink).values():
            if isinstance(value, (list, dict, set, tuple)):
                assert len(value) <= 4, (
                    "sink retained per-event state; tracing must stream"
                )

    def test_event_log_holds_one_chunk_at_a_time(self, tmp_path, monkeypatch):
        """The log hands its events on every CHUNK_EVENTS appends.

        ``begin`` goes first, alone, so the trace file opens at once.
        """
        monkeypatch.setattr("repro.serve.observe.CHUNK_EVENTS", 64)
        sizes = []

        class ChunkSizes:
            def write(self, chunk):
                sizes.append(len(chunk))

            def close(self, makespan_ns):
                pass

        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        trace = tuple(
            poisson_trace("resnet18", rps=30_000, duration_s=0.02, seed=0)
        )
        engine, _ = _engine(["resnet18"])
        engine.run(trace, log=EventLog([sink, ChunkSizes()]))
        assert len(sizes) > 3 and sizes[0] == 1
        assert set(sizes[1:-1]) == {64} and 0 <= sizes[-1] < 64
        assert sink.n_events > len(trace)  # the events reached the sink

    def test_chrome_open_spans_bounded_by_queue_depth(self, tmp_path):
        """Open-span bookkeeping tracks the queue, not the trace length."""
        small = ChromeTraceSink(str(tmp_path / "small.json"))
        n_small = self._traced(0.02, small)
        big = ChromeTraceSink(str(tmp_path / "big.json"))
        n_big = self._traced(0.16, big)
        assert n_big > 6 * n_small
        # 8x the requests at the same offered load: the same queue-depth
        # high-water, give or take arrival noise — nowhere near 8x.
        assert big.max_open_spans <= 2 * small.max_open_spans + 8
        assert not big._open and not big._inflight  # all spans closed
