"""The autoregressive decode loop: accounting, pinning, KV residency.

Covers the decode subsystem end to end at the run level:

* token conservation and per-request timing invariants (TTFT stamps,
  inter-token latency) on a plain decode run;
* engine-level differential — a decode-armed engine fed a trace with no
  decode tokens is object-for-object identical to the decode-free
  engine, so the general path never drifts from the turbo path;
* prefill-decode placement pinning, read off the lifecycle trace's
  ``dsp`` and ``dit`` events: prefill dispatches stay on group 0, every
  decode iteration lands on groups 1+;
* KV-cache residency — a model whose weights exhaust on-chip capacity
  (``gpt_large``) spills its entire decode KV to off-chip
  (``kv_overflow == 1.0``); a small model spills nothing;
* graceful degeneracy (CNN-only runs decode nothing) and the trace/
  engine contract errors.
"""

import pytest

from trace_probe import traced_run

from repro.models.zoo import get_workload
from repro.serve import (
    BatchingPolicy,
    Cluster,
    DecodeConfig,
    FleetConfig,
    ServingConfig,
    ServingEngine,
    WorkloadConfig,
    sample_decode_lens,
    simulate_serving,
    with_decode_lens,
)
from repro.serve.clients import estimated_saturation_clients
from repro.serve.traces import poisson_trace, with_seqlens, sample_seqlens

DECODE = DecodeConfig(dist="lognormal", mean_tokens=8)


def _config(models=("mobilebert",), fleet=FleetConfig(fleet="yoco:2"), **rest):
    return ServingConfig(
        workload=WorkloadConfig(models=models, rps=2000.0, duration_s=0.02),
        fleet=fleet,
        **rest,
    )


def _decode_run(models=("mobilebert",), decode=DECODE):
    return simulate_serving(config=_config(models, decode=decode))


class TestDecodeRun:
    def test_token_conservation_and_reporting(self):
        report, result = _decode_run()
        assert result.has_decode and report.has_decode
        assert result.n_decode_tokens == sum(
            s.decode_tokens for s in result.served
        )
        assert all(s.decode_tokens >= 1 for s in result.served)
        # Iterations batch tokens: never more iterations than tokens,
        # never fewer than the longest single request needs.
        assert result.n_decode_iters <= result.n_decode_tokens
        assert result.n_decode_iters >= max(
            s.decode_tokens for s in result.served
        )
        assert report.n_decode_iters == result.n_decode_iters
        assert report.decode_tokens_per_s > 0

    def test_per_request_timing_invariants(self):
        _, result = _decode_run()
        for s in result.served:
            # TTFT is the prefill completion edge: after arrival, before
            # (or at) the final-token finish.
            assert s.request.arrival_ns <= s.first_token_ns <= s.finish_ns
            assert s.ttft_ns <= s.finish_ns - s.request.arrival_ns
            assert s.itl_ns >= 0
        m = _decode_run()[0].per_model[0]
        assert 0 < m.ttft_p50_ms <= m.ttft_p99_ms
        assert m.itl_p50_ms <= m.itl_p99_ms
        assert m.mean_decode_tokens >= 1

    def test_per_model_mean_batch_counts_prefill_batches(self):
        # A decoded request finishes on a decode chip but keeps its
        # prefill dispatch stamp; the per-model batch count must still
        # count prefill batches, like the run-level one.
        report, result = simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(
                    models=("mobilebert",), rps=6000.0, duration_s=0.05
                ),
                fleet=FleetConfig(fleet="yoco:8"),
                decode=DecodeConfig(dist="lognormal", mean_tokens=16),
            )
        )
        assert result.has_decode
        assert report.per_model[0].mean_batch_size == result.mean_batch_size

    def test_decode_off_is_the_legacy_engine(self):
        with_none = _decode_run(decode=None)
        legacy = simulate_serving(config=_config())
        assert with_none[0] == legacy[0]
        assert with_none[1] == legacy[1]
        assert not legacy[0].has_decode


class TestEngineDifferential:
    """A decode-armed engine on a zero-decode trace changes nothing."""

    def test_zero_decode_trace_matches_no_decode_engine(self):
        cluster = Cluster([get_workload("mobilebert")], fleet="yoco:2")
        trace = poisson_trace("mobilebert", 2000.0, 0.02, seed=0)
        trace = with_seqlens(
            trace, sample_seqlens("uniform", len(trace), 128, seed=7)
        )
        policy = BatchingPolicy(max_batch_size=4)
        plain = ServingEngine(cluster, policy).run(trace)
        armed = ServingEngine(cluster, policy, decode=DECODE).run(trace)
        assert plain == armed
        assert not armed.has_decode

    def test_trace_decode_tokens_need_an_armed_engine(self):
        cluster = Cluster([get_workload("mobilebert")], fleet="yoco:2")
        trace = poisson_trace("mobilebert", 2000.0, 0.01, seed=0)
        trace = with_decode_lens(
            trace, sample_decode_lens(DECODE, len(trace), seed=0)
        )
        with pytest.raises(ValueError, match="engine has no decode loop"):
            ServingEngine(cluster).run(trace)

    def test_decode_needs_a_token_axis(self):
        cluster = Cluster([get_workload("resnet18")], fleet="yoco:2")
        trace = poisson_trace("resnet18", 2000.0, 0.01, seed=0)
        trace = with_decode_lens(trace, (4,) * len(trace))
        with pytest.raises(ValueError, match="no token axis"):
            ServingEngine(cluster, decode=DECODE).run(trace)


class _ChipCollector:
    """Which chips host prefill dispatches vs decode iterations, read off
    a run's lifecycle trace."""

    def __init__(self, events):
        self.dispatch_chips = set()
        self.decode_chips = set()
        self.decode_iters = 0
        self.decode_reqs = 0
        for ev in events:
            if ev["ev"] == "dsp":
                self.dispatch_chips.add(ev["chip"])
            elif ev["ev"] == "dit":
                assert ev["n"] >= 1 and ev["ctx"] >= 1 and ev["fin"] >= ev["t"]
                self.decode_chips.add(ev["chip"])
                self.decode_iters += 1
                self.decode_reqs += ev["n"]


class TestPrefillDecodePlacement:
    def test_decode_iterations_pin_to_the_decode_group(self):
        _, result, events = traced_run(
            _config(
                fleet=FleetConfig(
                    fleet="yoco:2,isaac:2", placement="prefill-decode"
                ),
                decode=DECODE,
            )
        )
        collector = _ChipCollector(events)
        # Fleet group 0 (yoco:2) = chips {0, 1}; group 1 (isaac:2) = {2, 3}.
        assert collector.dispatch_chips <= {0, 1}
        assert collector.decode_chips <= {2, 3}
        assert collector.decode_iters == result.n_decode_iters
        assert collector.decode_reqs == result.n_decode_tokens
        # Every request finishes its last token on a decode chip.
        assert all(s.chip_id in {2, 3} for s in result.served)

    def test_unified_placement_decodes_everywhere(self):
        _, _, events = traced_run(
            ServingConfig(
                workload=WorkloadConfig(
                    models=("mobilebert",), rps=4000.0, duration_s=0.05
                ),
                fleet=FleetConfig(fleet="yoco:2,isaac:2"),
                decode=DECODE,
            )
        )
        collector = _ChipCollector(events)
        # Replicated placement leaves every chip eligible for both
        # phases: decode iterations land outside the would-be decode
        # group (fastest routing favors the YOCO chips 0-1).
        assert collector.decode_chips - {2, 3}


class TestSlowPrefillGroup:
    """``prefill-decode`` with the slow chip type first: group 0 (ISAAC)
    runs every prefill, so the SLO floor, the admission predictor and the
    saturation estimate must read ISAAC's prefill, not the faster YOCO
    decode chips that never run one."""

    def test_floor_and_predictor_read_the_prefill_hosts(self):
        cluster = Cluster(
            [get_workload("mobilebert")],
            fleet="isaac:2,yoco:2",
            placement="prefill-decode",
        )
        assert cluster.service_table("mobilebert").hosts == (0, 1)
        assert cluster.decode_table("mobilebert").hosts == (2, 3)
        floor = cluster.reference_latency_ns("mobilebert")
        assert floor == 5_875_200.0  # ISAAC's batch-1 prefill
        # Four batches ahead over two prefill hosts: two waves, then ours.
        assert cluster.predicted_latency_ns("mobilebert", 4) == 3 * floor
        assert estimated_saturation_clients(cluster, think_time_ms=0.0) == 2

    def test_default_slo_is_attainable(self):
        report, _ = simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(
                    models=("mobilebert",), rps=200.0, duration_s=0.05
                ),
                fleet=FleetConfig(
                    fleet="isaac:2,yoco:2", placement="prefill-decode"
                ),
                decode=DecodeConfig(dist="lognormal", mean_tokens=16),
            )
        )
        assert report.n_requests == 9
        assert report.slo_attainment == 1.0


class TestKvResidency:
    def test_oversized_weights_spill_all_decode_kv(self):
        # gpt_large's weights alone exhaust on-chip capacity, so the KV
        # cache has zero residual budget: every decode byte streams at
        # off-chip cost and the overflow share saturates.
        report, result = simulate_serving(
            config=ServingConfig(
                workload=WorkloadConfig(
                    models=("gpt_large",), rps=200.0, duration_s=0.02
                ),
                fleet=FleetConfig(fleet="yoco:2"),
                decode=DecodeConfig(dist="fixed", mean_tokens=8),
            )
        )
        assert result.kv_bytes > 0
        assert result.kv_overflow == 1.0
        assert report.kv_overflow == 1.0

    def test_small_model_keeps_kv_resident(self):
        report, result = _decode_run()
        assert result.kv_bytes > 0
        assert result.kv_overflow == 0.0
        assert report.kv_overflow == 0.0


class TestNoTokenAxis:
    def test_cnn_run_with_decode_config_decodes_nothing(self):
        # decode= on a CNN-only workload is a no-op (no token axis, so
        # no decode lengths are ever attached), not an error.
        report, result = _decode_run(models=("resnet18",))
        assert result.n_decode_tokens == 0
        assert not result.has_decode
        assert not report.has_decode
        legacy = simulate_serving(config=_config(("resnet18",)))
        assert report == legacy[0] and result == legacy[1]
