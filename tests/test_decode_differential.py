"""Golden guard for the autoregressive decode loop.

The decode loop routes every iteration to a free decode-side chip and
prices it from the cluster's decode cost rows.  These scenarios pin its
results byte for byte (the formatted report) and bit for bit (a sha256
digest over every served request's decode journey), across each routing
branch the loop takes:

* uniform fleets under ``fastest`` and ``cheapest-energy``, where every
  decode host ties and routing reduces to the lowest free chip id;
* a mixed ``yoco:2,isaac:2`` fleet, unified and ``prefill-decode``,
  where each candidate chip is priced;
* ``gpt_large`` on ``yoco:2``, whose KV cache spills off-chip;
* power-capped runs, uniform and mixed, where routing prices the
  throttle-stretched latency;
* ``round-robin`` on the mixed fleet, unified and ``prefill-decode``,
  where prefill batches and decode iterations rotate over their hosts;
* two models under a batch cap of 2 and a 0.5 ms window: on ``yoco:4``,
  on the priced ``yoco:2,isaac:2``, and on a busy ``yoco:2`` where the
  two decode FIFOs wait for the same chips.  A decode completion
  re-dispatches its own FIFO directly when the dispatch scan could pick
  nothing else, and runs the full scan when a prefill queue is ready,
  the other FIFO waits, or its own FIFO holds more than one batch.

Regenerate the goldens only on an intentional behaviour change::

    PYTHONPATH=src python tests/test_decode_differential.py --write
"""

import collections
import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro.serve import (
    DecodeConfig,
    PowerConfig,
    format_serving,
    simulate_serving,
)
from repro.serve.config import (
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
)

DATA = pathlib.Path(__file__).parent / "data"
DIGESTS = DATA / "golden_decode_digests.json"

DECODE = DecodeConfig(dist="lognormal", mean_tokens=16)

#: scenario -> (WorkloadConfig kwargs, FleetConfig kwargs).
SCENARIOS = {
    "yoco8_fastest": (
        dict(models=["mobilebert"], rps=6000.0, duration_s=0.05),
        dict(fleet="yoco:8"),
    ),
    "yoco4_energy": (
        dict(models=["mobilebert"], rps=3000.0, duration_s=0.05),
        dict(fleet="yoco:4", routing="cheapest-energy"),
    ),
    "hetero_fastest": (
        dict(models=["mobilebert"], rps=16000.0, duration_s=0.02),
        dict(fleet="yoco:2,isaac:2"),
    ),
    "hetero_pd_energy": (
        dict(models=["mobilebert"], rps=2000.0, duration_s=0.02),
        dict(
            fleet="yoco:2,isaac:2",
            placement="prefill-decode",
            routing="cheapest-energy",
        ),
    ),
    "gpt_large_overflow": (
        dict(models=["gpt_large"], rps=40.0, duration_s=0.05),
        dict(fleet="yoco:2"),
    ),
    "yoco4_power_capped": (
        dict(models=["mobilebert"], rps=3000.0, duration_s=0.02),
        dict(fleet="yoco:4", power=PowerConfig(power_cap_w=0.2)),
    ),
    "hetero_power_capped_energy": (
        dict(models=["mobilebert"], rps=8000.0, duration_s=0.02),
        dict(
            fleet="yoco:2,isaac:2",
            routing="cheapest-energy",
            power=PowerConfig(power_cap_w=0.5),
        ),
    ),
    "hetero_rr": (
        dict(models=["mobilebert"], rps=16000.0, duration_s=0.02),
        dict(fleet="yoco:2,isaac:2", routing="round-robin"),
    ),
    "hetero_pd_rr": (
        dict(models=["mobilebert"], rps=2000.0, duration_s=0.02),
        dict(
            fleet="yoco:2,isaac:2",
            placement="prefill-decode",
            routing="round-robin",
        ),
    ),
    "two_models_yoco4": (
        dict(models=["mobilebert", "qdqbert"], rps=3000.0, duration_s=0.05),
        dict(fleet="yoco:4"),
    ),
    "two_models_hetero": (
        dict(models=["mobilebert", "qdqbert"], rps=3000.0, duration_s=0.05),
        dict(fleet="yoco:2,isaac:2"),
    ),
    "two_models_yoco2_busy": (
        dict(models=["mobilebert", "qdqbert"], rps=6000.0, duration_s=0.05),
        dict(fleet="yoco:2"),
    ),
}

#: scenario -> PolicyConfig kwargs (the default policy otherwise).
POLICIES = {
    "two_models_yoco4": dict(max_batch_size=2, window_ms=0.5),
    "two_models_hetero": dict(max_batch_size=2, window_ms=0.5),
    "two_models_yoco2_busy": dict(max_batch_size=2, window_ms=0.5),
}


def _config(scenario: str, observe=ObserveConfig()) -> ServingConfig:
    workload, fleet = SCENARIOS[scenario]
    return ServingConfig(
        workload=WorkloadConfig(**workload),
        fleet=FleetConfig(**fleet),
        policy=PolicyConfig(**POLICIES.get(scenario, {})),
        observe=observe,
        decode=DECODE,
    )


@functools.lru_cache(maxsize=None)
def _run(scenario: str):
    return simulate_serving(config=_config(scenario))


def decode_digest(result) -> str:
    """Bit-exact fingerprint of every request's decode journey.

    ``repr`` keeps every float at full precision, so one ULP of drift in
    routing, pricing or KV accounting changes the digest.
    """
    lines = [
        f"{s.request.request_id} {s.request.model} {s.chip_id} "
        f"{s.dispatch_ns!r} {s.finish_ns!r} {s.energy_pj!r} "
        f"{s.first_token_ns!r} {s.decode_tokens} {s.kv_bytes!r} "
        f"{s.kv_overflow_bytes!r}"
        for s in result.served
    ]
    lines.append(f"iters {result.n_decode_iters}")
    lines.append("busy " + " ".join(repr(b) for b in result.chip_busy_ns))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _golden_path(scenario: str) -> pathlib.Path:
    return DATA / f"golden_decode_{scenario}.txt"


@pytest.fixture(scope="module")
def golden_digests():
    with open(DIGESTS) as f:
        return json.load(f)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_decode_run_reproduces_golden(scenario, golden_digests):
    report, result = _run(scenario)
    assert result.has_decode
    golden = _golden_path(scenario).read_text().rstrip("\n")
    assert format_serving(report) == golden
    assert decode_digest(result) == golden_digests[scenario]


class TestScenariosCoverTheirBranch:
    """Each golden exercises the branch its name claims."""

    def test_mixed_fleet_decodes_on_both_chip_types(self):
        _, result = _run("hetero_fastest")
        assert {s.chip_id for s in result.served} == {0, 1, 2, 3}

    def test_prefill_decode_finishes_on_the_decode_group(self):
        _, result = _run("hetero_pd_energy")
        assert {s.chip_id for s in result.served} <= {2, 3}

    @pytest.mark.parametrize(
        "scenario, decode_side",
        [("hetero_rr", {0, 1, 2, 3}), ("hetero_pd_rr", {2, 3})],
    )
    def test_round_robin_rotates_over_the_decode_side(
        self, scenario, decode_side
    ):
        _, result = _run(scenario)
        chips = {s.chip_id for s in result.served}
        assert chips <= decode_side
        assert len(chips) > 1

    def test_gpt_large_spills_its_kv(self):
        _, result = _run("gpt_large_overflow")
        assert result.kv_overflow == 1.0

    @pytest.mark.parametrize(
        "scenario", ["yoco4_power_capped", "hetero_power_capped_energy"]
    )
    def test_power_cap_binds(self, scenario):
        _, result = _run(scenario)
        assert result.power.total_stall_ns > 0

    @pytest.mark.parametrize(
        "scenario", ["two_models_hetero", "two_models_yoco2_busy"]
    )
    def test_decode_completions_hand_chips_to_other_slots(
        self, scenario, tmp_path
    ):
        """At a decode completion the full scan runs when another slot
        could take the freed chip, and the chip may then go to that slot:
        a ready prefill queue or, on the busy fleet, the other model's
        waiting FIFO.  A direct re-dispatch only ever launches the
        completion's own FIFO, so these launches show the scan ran.
        Instants with an arrival or a prefill completion are left out."""
        path = tmp_path / "trace.jsonl"
        simulate_serving(
            config=_config(scenario, ObserveConfig(trace_file=str(path)))
        )
        events = [json.loads(line) for line in path.read_text().splitlines()]
        finished = collections.defaultdict(set)
        launched = collections.defaultdict(list)
        other = set()
        for e in events:
            if e["ev"] == "dit":
                finished[e["fin"]].add(e["m"])
            if e["ev"] in ("dit", "dsp"):
                launched[e["t"]].append(e)
            elif e["ev"] in ("arr", "cmp"):
                other.add(e["t"])
        to_prefill = to_other_model = 0
        for t, models in finished.items():
            if t in other:
                continue
            for e in launched[t]:
                if e["ev"] == "dsp":
                    to_prefill += 1
                elif e["m"] not in models:
                    to_other_model += 1
        assert to_prefill > 0
        if scenario == "two_models_yoco2_busy":
            assert to_other_model > 0


def _write() -> None:
    digests = {}
    for scenario in sorted(SCENARIOS):
        report, result = _run(scenario)
        _golden_path(scenario).write_text(format_serving(report) + "\n")
        digests[scenario] = decode_digest(result)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_decode_differential.py --write")
    _write()
