"""Golden guard for the engine's work counters and self-profile.

Eight short profiled runs, each pinned field for field on ``result.stats``:
the four :class:`~repro.serve.engine.EngineStats` counters and the
:class:`~repro.serve.engine.EngineProfile` (``events_by_kind``,
``dispatch_scan_hist``, ``heap_peak``).  Together they cover both engine
loops and every event source the profile counts:

* ``turbo_diurnal`` — the single-slot walk (``ServingEngine._run_turbo``);
* ``wfq_preempt`` — weighted-fair tenants with preemption, so tombstoned
  completions pop as events;
* ``decode`` — a decode loop, whose iterations complete as events;
* ``decode_two_models`` and ``decode_two_models_busy`` — two models'
  decode FIFOs under a batch cap of 2 and a 0.5 ms window, on ``yoco:4``
  and on a busy ``yoco:2``.  A decode completion either re-dispatches
  its own FIFO directly or runs the full dispatch scan, and both must
  count the same work; on the busy fleet the scan also meets ready
  prefill queues, unarmed windows, overfull FIFOs and the other model's
  waiting FIFO;
* ``decode_walk_ties`` — the tie golden's decode trace
  (``tests/test_tie_goldens.py``), whose decode completions share their
  instant with an arrival, a window timer, a lower-id chip's prefill
  completion and a second decode stream's completion; a completion
  whose chip an earlier event of its instant already freed must count
  the dispatch scan that instant leaves;
* ``clients_retries`` — closed-loop sessions under a queue cap, so
  rejected requests re-arrive as retries;
* ``elastic`` — a ``1:8`` autoscaled run with controller evaluations and
  chip activations as scale events.

Regenerate the goldens only on an intentional change of the counters::

    PYTHONPATH=src python tests/test_engine_stats_golden.py --write
"""

import functools
import json
import pathlib
import sys

import pytest

from repro.serve import DecodeConfig, ServingEngine, simulate_serving
from repro.serve.config import (
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
)
from test_tie_goldens import decode_walk_ties

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_engine_stats.json"

PROFILE = ObserveConfig(profile_engine=True)

SCENARIOS = {
    "turbo_diurnal": ServingConfig(
        workload=WorkloadConfig(
            models=("resnet18",), rps=20000.0, duration_s=0.05,
            trace_kind="diurnal", seed=0,
        ),
        fleet=FleetConfig(fleet="yoco:8"),
        policy=PolicyConfig(max_batch_size=8, window_ms=0.2),
        observe=PROFILE,
    ),
    "wfq_preempt": ServingConfig(
        workload=WorkloadConfig(
            models=("resnet18", "mobilebert"), duration_s=0.05, seed=0,
            tenants=(
                "chat:interactive:w=4:model=resnet18:poisson@3000,"
                "bulk:best-effort:model=mobilebert:poisson@20000"
            ),
        ),
        fleet=FleetConfig(fleet="yoco:2,isaac:2"),
        policy=PolicyConfig(scheduler="weighted-fair", preemption=True),
        observe=PROFILE,
    ),
    "decode": ServingConfig(
        workload=WorkloadConfig(
            models=("mobilebert",), rps=4000.0, duration_s=0.02, seed=0,
        ),
        fleet=FleetConfig(fleet="yoco:4"),
        observe=PROFILE,
        decode=DecodeConfig(dist="lognormal", mean_tokens=8),
    ),
    "decode_two_models": ServingConfig(
        workload=WorkloadConfig(
            models=("mobilebert", "qdqbert"), rps=3000.0, duration_s=0.05,
            seed=0,
        ),
        fleet=FleetConfig(fleet="yoco:4"),
        policy=PolicyConfig(max_batch_size=2, window_ms=0.5),
        observe=PROFILE,
        decode=DecodeConfig(dist="lognormal", mean_tokens=16),
    ),
    "decode_two_models_busy": ServingConfig(
        workload=WorkloadConfig(
            models=("mobilebert", "qdqbert"), rps=6000.0, duration_s=0.05,
            seed=0,
        ),
        fleet=FleetConfig(fleet="yoco:2"),
        policy=PolicyConfig(max_batch_size=2, window_ms=0.5),
        observe=PROFILE,
        decode=DecodeConfig(dist="lognormal", mean_tokens=16),
    ),
    "decode_walk_ties": functools.partial(decode_walk_ties, profile=True),
    "clients_retries": ServingConfig(
        workload=WorkloadConfig(
            models=("mobilebert",), duration_s=0.05, seed=0, clients=64,
            think_time_ms=0.5, retry=2,
        ),
        fleet=FleetConfig(fleet="yoco:2"),
        policy=PolicyConfig(admission="queue-cap:16"),
        observe=PROFILE,
    ),
    "elastic": ServingConfig(
        workload=WorkloadConfig(
            models=("mobilebert",), rps=20000.0, duration_s=0.1,
            trace_kind="diurnal", seed=0,
        ),
        fleet=FleetConfig(fleet="yoco:8", elastic="1:8"),
        observe=PROFILE,
    ),
}


@functools.lru_cache(maxsize=None)
def _run(scenario: str):
    config = SCENARIOS[scenario]
    if callable(config):
        return config()
    return simulate_serving(config)[1]


def stats_record(stats) -> dict:
    """``result.stats`` as plain JSON data."""
    prof = stats.profile
    return {
        "n_events": stats.n_events,
        "n_dispatch_rounds": stats.n_dispatch_rounds,
        "n_slot_scans": stats.n_slot_scans,
        "n_batches": stats.n_batches,
        "events_by_kind": [list(kv) for kv in prof.events_by_kind],
        "dispatch_scan_hist": [list(kv) for kv in prof.dispatch_scan_hist],
        "heap_peak": prof.heap_peak,
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_stats_reproduce_golden(scenario, golden):
    assert stats_record(_run(scenario).stats) == golden[scenario]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scan_hist_counts_rounds(scenario):
    stats = _run(scenario).stats
    hist = stats.profile.dispatch_scan_hist
    assert sum(count for _, count in hist) == stats.n_dispatch_rounds


class TestScenariosCoverTheirEvents:
    """Each pinned run exercises the event source it claims."""

    def test_turbo_walk_runs(self, monkeypatch):
        walks = []
        turbo = ServingEngine._run_turbo

        def spy(self, *args, **kwargs):
            walks.append(True)
            return turbo(self, *args, **kwargs)

        monkeypatch.setattr(ServingEngine, "_run_turbo", spy)
        fresh = simulate_serving(SCENARIOS["turbo_diurnal"])[1]
        assert walks and fresh == _run("turbo_diurnal")

    def test_preemption_leaves_tombstones(self):
        assert _run("wfq_preempt").preempted

    def test_decode_iterations_complete(self):
        assert _run("decode").n_decode_iters > 0

    def test_closed_loop_retries(self):
        assert _run("clients_retries").n_retries > 0

    def test_elastic_scales(self):
        result = _run("elastic")
        kinds = {a.kind for a in result.elastic.actions}
        assert {"up", "drain"} <= kinds
        assert dict(result.stats.profile.events_by_kind)["scale"] > 0


def _write() -> None:
    records = {name: stats_record(_run(name).stats) for name in sorted(SCENARIOS)}
    GOLDEN.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_stats_golden.py --write")
    _write()
