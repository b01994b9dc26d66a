"""Regression pins for three streaming/trace bugs, plus composition smokes.

The bugs (each test names the failure it guards against):

1. ``StreamingMetrics.latencies_ms()`` once returned a zero-copy *view*
   of a live latency buffer — any caller holding it (progress callbacks,
   dashboards polling mid-run) made the next completion's ``append``
   raise ``BufferError: cannot resize an array that is exporting
   buffers``.  Every read is now an independent copy of the served
   record's latency column.
2. ``uniform_trace`` truncated ``rps * duration_s`` with ``int()``,
   shedding the final arrival whenever float rounding landed the product
   an ULP under an integer (pinned property-style in
   ``test_serve_traces_properties``; the deterministic repro lives
   there too).
3. ``StreamingMetrics._emit`` advanced ``_next_emit`` by exactly one
   period, so a single large batch crossing several progress boundaries
   fired a burst of back-to-back emits on the following landings.

The composition smokes prove streaming mode survives the layers added
since it landed: all-shedding admission, closed-loop clients, and
weighted-fair multi-tenant runs.
"""

import dataclasses

import numpy as np
import pytest

from trace_probe import traced_run

from repro.cli import main
from repro.models.zoo import get_workload
from repro.serve import (
    Cluster,
    FleetConfig,
    MetricsRecorder,
    ObserveConfig,
    PolicyConfig,
    ServingConfig,
    StreamingMetrics,
    WorkloadConfig,
    simulate_serving,
)
from repro.serve.served import ServedColumns
from repro.serve.traces import TraceColumns


def _streamed(stream, fleet, **workload):
    """A 20 ms resnet18 run on ``fleet`` streaming into ``stream``."""
    return ServingConfig(
        workload=WorkloadConfig(
            models=("resnet18",), duration_s=0.02, seed=0, **workload
        ),
        fleet=fleet,
        observe=ObserveConfig(stream_metrics=stream),
    )


def _record(n):
    """A bound-ready served record: ``n`` requests, 1 ms latency each."""
    trace = TraceColumns(np.zeros(n), np.zeros(n, dtype=int), ("m",))
    ones = np.ones(n)
    table = np.column_stack(
        (np.arange(1, n + 1), 0 * ones, ones, 0 * ones, 1e6 * ones,
         0 * ones, 0 * ones)
    )
    return ServedColumns.land(trace, table)


class TestLatenciesViewCopy:
    def test_held_array_survives_later_completions(self):
        # Bug 1: a read leaked a live buffer view, and the next
        # completion then raised BufferError under any holder.  Every
        # read is a copy: held arrays keep their values as the run goes.
        held = []

        def hook(line):
            latencies = stream.latencies_ms()
            held.append((latencies, latencies.copy()))

        stream = StreamingMetrics(progress_every=50, progress=hook)
        simulate_serving(
            config=_streamed(stream, FleetConfig(fleet="yoco:4"), rps=20000.0)
        )
        assert len(held) > 2
        assert all(np.array_equal(h, snap) for h, snap in held)
        sizes = [len(h) for h, _ in held]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    def test_returned_array_is_an_independent_copy(self):
        stream = StreamingMetrics()
        simulate_serving(
            config=_streamed(stream, FleetConfig(fleet="yoco:4"), rps=20000.0)
        )
        held = stream.latencies_ms()
        want = held.copy()
        held[0] = 999.0
        assert np.array_equal(stream.latencies_ms(), want)

    def test_selections_partition_the_column(self):
        stream = StreamingMetrics()
        config = _streamed(stream, FleetConfig(fleet="yoco:4"), rps=20000.0)
        report, _ = simulate_serving(
            config=dataclasses.replace(
                config,
                workload=dataclasses.replace(
                    config.workload, models=("resnet18", "alexnet")
                ),
            )
        )
        parts = [stream.latencies_ms(model=m.model) for m in report.per_model]
        assert [len(p) for p in parts] == [
            m.n_requests for m in report.per_model
        ]
        assert sorted(np.concatenate(parts)) == sorted(stream.latencies_ms())
        assert len(stream.latencies_ms(chip_type="yoco")) == stream.n_served
        assert len(stream.latencies_ms(chip_type="isaac")) == 0

    def test_progress_callback_may_hold_latencies_across_a_run(self):
        # End-to-end shape of the original failure: a progress hook that
        # keeps the latency column alive between emissions.
        held = []

        def hook(line):
            held.append(StreamingMetrics.latencies_ms(stream))

        stream = StreamingMetrics(progress_every=50, progress=hook)
        simulate_serving(
            config=_streamed(stream, FleetConfig(fleet="yoco:4"), rps=20000.0)
        )
        assert held  # the hook fired, and no landing ever raised
        assert all(len(h) > 0 for h in held)


class TestEmitBurst:
    def _emits_for_batches(self, every, batch_sizes):
        lines = []
        sm = StreamingMetrics(progress_every=every, progress=lines.append)
        record = _record(sum(batch_sizes))
        cluster = Cluster([get_workload("resnet18")], fleet="yoco:1")
        landed = sm._begin_run(lambda: record, cluster)
        n = 0
        for size in batch_sizes:
            n += size
            landed(n)
        return lines, sm

    def test_large_batch_fires_once_not_a_burst(self):
        # Bug 3: a 250-request batch at every=100 left the next boundary
        # at 200, so the next two tiny landings each fired immediately.
        lines, sm = self._emits_for_batches(100, [250, 1, 1])
        assert len(lines) == 1
        assert "served=      250" in lines[0]
        assert sm._next_emit == 300

    def test_boundary_landing_advances_a_full_period(self):
        lines, sm = self._emits_for_batches(100, [200])
        assert len(lines) == 1
        assert sm._next_emit == 300

    def test_steady_small_batches_emit_every_period(self):
        lines, _ = self._emits_for_batches(100, [10] * 100)  # 1000 served
        assert len(lines) == 10

    def test_emits_follow_the_landings_of_a_real_run(self):
        # The served count after every landed batch, read off the trace;
        # the progress lines must be exactly the boundary-jump rule's.
        landed, lines, every = [], [], 6
        stream = StreamingMetrics(progress_every=every, progress=lines.append)
        _, _, events = traced_run(
            _streamed(stream, FleetConfig(fleet="yoco:2"), rps=30000.0)
        )
        for ev in events:
            if ev["ev"] == "cmp":
                landed.append((landed[-1] if landed else 0) + len(ev["rids"]))
        want, boundary = [], every
        for n in landed:
            if n >= boundary:
                want.append(n)
                boundary = n - n % every + every
        got = [int(line.split("served=")[1].split()[0]) for line in lines]
        assert got == want and len(got) > 10
        assert any(b - a > every for a, b in zip(landed, landed[1:]))


class TestStreamedResultQueries:
    """A streamed result answers every query the retained one does.

    Streamed runs used to return an empty ``served``, so ``for_model``
    and ``for_tenant`` silently found nothing (0 of 35 resnet18 requests
    here) and the streamed result compared unequal to the retained one.
    """

    def test_queries_equal_the_retained_run(self):
        def run(stream):
            return simulate_serving(
                config=ServingConfig(
                    workload=WorkloadConfig(
                        models=("resnet18", "mobilebert"), rps=4000.0,
                        duration_s=0.02, seed=0,
                    ),
                    fleet=FleetConfig(fleet="yoco:4"),
                    observe=ObserveConfig(stream_metrics=stream),
                )
            )[1]

        retained, streamed = run(None), run(StreamingMetrics())
        assert len(retained.for_model("resnet18")) > 0
        assert streamed.models == retained.models
        for model in retained.models:
            assert streamed.for_model(model) == retained.for_model(model)
        assert streamed.for_tenant("") == retained.for_tenant("")
        assert streamed.served == retained.served
        assert streamed == retained


#: Single-model runs take the turbo loop; a second model forces the
#: general one.
LOOPS = pytest.mark.parametrize(
    "models", [("resnet18",), ("resnet18", "alexnet")], ids=["turbo", "general"]
)


class TestLiveReads:
    """Mid-run reads see exactly the requests landed so far.

    Both loops convert only the landings since the previous read, so
    every read after the first goes through the columns already built.
    """

    @LOOPS
    def test_every_read_is_the_landed_multiset(self, models):
        reads = []

        def hook(line):
            reads.append((stream.n_served, stream.latencies_ms()))

        stream = StreamingMetrics(progress_every=40, progress=hook)
        config = _streamed(stream, FleetConfig(fleet="yoco:4"), rps=20000.0)
        _, result, events = traced_run(
            dataclasses.replace(
                config,
                workload=dataclasses.replace(config.workload, models=models),
            )
        )
        # The trace's completions in landing order.  A read happens right
        # after the landing that crosses a progress boundary (the
        # boundary-jump rule), and must count exactly the landed so far.
        landed, want, boundary = [], [], 40
        for ev in events:
            if ev["ev"] == "cmp":
                landed.extend(ev["rids"])
                if len(landed) >= boundary:
                    want.append(len(landed))
                    boundary = len(landed) - len(landed) % 40 + 40
        latency = dict(
            zip(
                result.served.requests.request_id.tolist(),
                result.served.latency_ms().tolist(),
            )
        )
        assert len(reads) > 5
        assert [n_served for n_served, _ in reads] == want
        for n_served, latencies in reads:
            assert sorted(latencies.tolist()) == sorted(
                latency[i] for i in landed[:n_served]
            )

    @LOOPS
    def test_reused_stream_fails_before_the_observer_begins(
        self, models, tmp_path
    ):
        """The run's observer is its trace file: none may be created.

        The log hands ``begin`` to its renderers at once, so a trace
        begun before the stream check would leave its file behind.
        """
        stream = StreamingMetrics()
        config = _streamed(stream, FleetConfig(fleet="yoco:4"), rps=20000.0)
        config = dataclasses.replace(
            config,
            workload=dataclasses.replace(config.workload, models=models),
        )
        simulate_serving(config=config)
        trace = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError, match="exactly one run"):
            simulate_serving(
                config=dataclasses.replace(
                    config,
                    observe=ObserveConfig(
                        stream_metrics=stream, trace_file=str(trace)
                    ),
                )
            )
        assert not trace.exists()

    @LOOPS
    def test_unwritable_trace_fails_before_any_landing(self, models, tmp_path):
        lines = []
        stream = StreamingMetrics(progress_every=1, progress=lines.append)
        config = _streamed(stream, FleetConfig(fleet="yoco:4"), rps=20000.0)
        config = dataclasses.replace(
            config,
            workload=dataclasses.replace(config.workload, models=models),
            observe=ObserveConfig(
                stream_metrics=stream,
                trace_file=str(tmp_path / "missing" / "trace.jsonl"),
            ),
        )
        with pytest.raises(FileNotFoundError):
            simulate_serving(config=config)
        assert lines == []


class TestStreamingComposition:
    """Streaming mode composes with the layers added after it."""

    def test_streaming_with_all_shedding_admission(self):
        # queue-cap:1 at 10x capacity sheds most arrivals; the stream
        # must account served + shed = offered without double counting.
        stream = StreamingMetrics()
        config = _streamed(stream, FleetConfig(fleet="yoco:2"), rps=100000.0)
        report, result = simulate_serving(
            config=dataclasses.replace(
                config, policy=PolicyConfig(admission="queue-cap:1")
            )
        )
        assert result.n_dropped > 0
        assert stream.n_served == result.n_requests
        assert result.n_offered == result.n_requests + result.n_dropped
        assert report.has_admission

    def test_streaming_with_closed_loop_clients(self):
        stream = StreamingMetrics()
        report, result = simulate_serving(
            config=_streamed(
                stream, FleetConfig(fleet="yoco:4"), clients=32, think_time_ms=1.0
            )
        )
        assert result.n_clients == 32
        assert stream.n_served == result.n_requests > 0
        assert report.has_clients

    def test_streaming_with_weighted_fair_tenants(self):
        stream = StreamingMetrics()
        config = _streamed(
            stream,
            FleetConfig(fleet="yoco:4"),
            tenants="chat:interactive:w=4:poisson@20000,"
            "bulk:batch:poisson@20000",
        )
        report, result = simulate_serving(
            config=dataclasses.replace(
                config, policy=PolicyConfig(scheduler="weighted-fair")
            )
        )
        assert stream.n_served == result.n_requests > 0
        assert report.has_tenants
        assert {t.tenant for t in report.per_tenant} == {"chat", "bulk"}

    def test_streaming_with_elastic_fleet(self):
        stream = StreamingMetrics()
        report, result = simulate_serving(
            config=_streamed(
                stream,
                FleetConfig(fleet="yoco:8", elastic="1:8"),
                rps=80000.0,
                trace_kind="diurnal",
            )
        )
        assert stream.n_served == result.n_requests > 0
        assert result.elastic is not None
        assert report.has_elastic


class TestProgressPeriodValidation:
    """Sub-1 streaming cadences fail fast, where they are made.

    The emit scheduler advances ``_next_emit`` by ``n_served % _every``
    arithmetic — a sub-1 period would emit on every completion, *after*
    the run had already started.  The ``StreamingMetrics`` constructor is
    the one place the rule lives (0 = off, else >= 1); the CLI's
    ``--progress >= 1`` is a flag-grammar check of its own.
    """

    def test_engine_rejects_sub_one_period(self):
        with pytest.raises(ValueError, match="progress_every"):
            StreamingMetrics(progress_every=0.5)

    def test_constructor_rejects_negative_period(self):
        with pytest.raises(ValueError, match="progress_every"):
            StreamingMetrics(progress_every=-1)

    @pytest.mark.parametrize("flag", ["0", "-5"])
    def test_cli_rejects_non_positive_progress(self, flag, capsys):
        with pytest.raises(SystemExit, match="--progress must be >= 1"):
            main(["serve", "--progress", flag, "--duration", "0.001"])

    def test_metrics_recorder_rejects_non_positive_window(self):
        for window_ms in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                MetricsRecorder(window_ms)

    def test_cli_rejects_zero_metrics_window(self, tmp_path):
        out = str(tmp_path / "m.csv")
        with pytest.raises(SystemExit, match="positive"):
            main(
                ["serve", "--metrics-out", f"{out}:0", "--duration", "0.001"]
            )
