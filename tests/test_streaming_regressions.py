"""Regression pins for three streaming/trace bugs, plus composition smokes.

The bugs (each test names the failure it guards against):

1. ``StreamingMetrics.latencies_ms()`` returned a zero-copy *view* of the
   live cell buffer on the single-cell path — any caller holding it
   (progress callbacks, dashboards polling mid-run) made the next
   completion's ``append`` raise ``BufferError: cannot resize an array
   that is exporting buffers``.
2. ``uniform_trace`` truncated ``rps * duration_s`` with ``int()``,
   shedding the final arrival whenever float rounding landed the product
   an ULP under an integer (pinned property-style in
   ``test_serve_traces_properties``; the deterministic repro lives
   there too).
3. ``StreamingMetrics._emit`` advanced ``_next_emit`` by exactly one
   period, so a single large batch crossing several progress boundaries
   fired a burst of back-to-back emits on the following observes.

The composition smokes prove streaming mode survives the layers added
since it landed: all-shedding admission, closed-loop clients, and
weighted-fair multi-tenant runs.
"""

import dataclasses

import numpy as np
import pytest

from repro.cli import main
from repro.serve import (
    FleetConfig,
    MetricsRecorder,
    ObserveConfig,
    PolicyConfig,
    ServingConfig,
    StreamingMetrics,
    WorkloadConfig,
    simulate_serving,
    uniform_trace,
)


def _streamed(stream, fleet, **workload):
    """A 20 ms resnet18 run on ``fleet`` streaming into ``stream``."""
    return ServingConfig(
        workload=WorkloadConfig(
            models=("resnet18",), duration_s=0.02, seed=0, **workload
        ),
        fleet=fleet,
        observe=ObserveConfig(stream_metrics=stream),
    )


class TestLatenciesViewCopy:
    def _stream_with_one_cell(self):
        sm = StreamingMetrics()
        sm._bound = True
        sm._chip_type = ("yoco",)
        sm._observe_block(
            ("m", "", "yoco"), np.array([1.0, 2.0, 3.0]), 3, 0.0
        )
        return sm

    def test_holding_the_view_does_not_poison_the_next_append(self):
        # Bug 1: the single-cell fast path leaked a live buffer view;
        # the next completion then raised BufferError under any holder.
        sm = self._stream_with_one_cell()
        held = sm.latencies_ms()
        sm._observe_block(("m", "", "yoco"), np.array([4.0]), 1, 0.0)
        assert list(held) == [1.0, 2.0, 3.0]
        assert list(sm.latencies_ms()) == [1.0, 2.0, 3.0, 4.0]

    def test_returned_array_is_an_independent_copy(self):
        sm = self._stream_with_one_cell()
        held = sm.latencies_ms()
        held[0] = 999.0
        assert list(sm.latencies_ms()) == [1.0, 2.0, 3.0]

    def test_multi_cell_path_unchanged(self):
        sm = self._stream_with_one_cell()
        sm._observe_block(("other", "", "yoco"), np.array([7.0]), 1, 0.0)
        held = sm.latencies_ms()  # concatenates two cells
        sm._observe_block(("m", "", "yoco"), np.array([5.0]), 1, 0.0)
        assert sorted(held) == [1.0, 2.0, 3.0, 7.0]

    def test_progress_callback_may_hold_latencies_across_a_run(self):
        # End-to-end shape of the original failure: a progress hook that
        # keeps the latency column alive between emissions.
        held = []

        def hook(line):
            held.append(StreamingMetrics.latencies_ms(stream))

        stream = StreamingMetrics(progress_every=50, progress=hook)
        simulate_serving(
            config=_streamed(stream, FleetConfig(n_chips=4), rps=20000.0)
        )
        assert held  # the hook fired, and no observe ever raised
        assert all(len(h) > 0 for h in held)


class TestEmitBurst:
    def _emits_for_batches(self, every, batch_sizes):
        lines = []
        sm = StreamingMetrics(progress_every=every, progress=lines.append)
        sm._bound = True
        sm._chip_type = ("yoco",)
        for size in batch_sizes:
            sm._observe_block(
                ("m", "", "yoco"),
                np.linspace(1.0, 2.0, size),
                size,
                0.0,
            )
        return lines, sm

    def test_large_batch_fires_once_not_a_burst(self):
        # Bug 3: a 250-request batch at every=100 left _next_emit at 200,
        # so the next two tiny observes each fired immediately.
        lines, sm = self._emits_for_batches(100, [250, 1, 1])
        assert len(lines) == 1
        assert sm._next_emit == 300

    def test_boundary_landing_advances_a_full_period(self):
        lines, sm = self._emits_for_batches(100, [200])
        assert len(lines) == 1
        assert sm._next_emit == 300

    def test_steady_small_batches_emit_every_period(self):
        lines, _ = self._emits_for_batches(100, [10] * 100)  # 1000 served
        assert len(lines) == 10


class TestStreamingComposition:
    """Streaming mode composes with the layers added after it."""

    def test_streaming_with_all_shedding_admission(self):
        # queue-cap:1 at 10x capacity sheds most arrivals; the stream
        # must account served + shed = offered without double counting.
        stream = StreamingMetrics()
        config = _streamed(stream, FleetConfig(n_chips=2), rps=100000.0)
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
                stream, FleetConfig(n_chips=4), clients=32, think_time_ms=1.0
            )
        )
        assert result.n_clients == 32
        assert stream.n_served == result.n_requests > 0
        assert report.has_clients

    def test_streaming_with_weighted_fair_tenants(self):
        stream = StreamingMetrics()
        config = _streamed(
            stream,
            FleetConfig(n_chips=4),
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
                FleetConfig(n_chips=8, elastic="1:8"),
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
