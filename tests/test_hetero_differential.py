"""Golden replay: the fleet form reproduces the pre-fleet serving runs.

The golden files under ``tests/data/`` were captured from the serving
stack *before* ``Cluster`` was generalized to heterogeneous fleets.  Three
scenarios — CNN traffic, seqlen-distributed LLM traffic, and a
partitioned pipelined multi-model run — are replayed on their one-group
fleets, and must reproduce the goldens **byte-for-byte** (the formatted
report) and **bit-for-bit** (a sha256 digest over every served request's
chip id, dispatch/finish timestamps via ``repr`` and energy share).  The
same fleet built from a spec (:func:`homogeneous_fleet`, what ``--chips N
--mode M`` means) must serve the same requests object for object.  The
CLI equivalence at the bottom: a ``--fleet yoco:N`` invocation is
indistinguishable from ``--chips N``.

These are tier-1 tests: any behavioral drift in the serving stack —
engine event ordering, cluster cost caching, metrics formatting — gates
the merge.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.arch import yoco_spec
from repro.cli import main
from repro.serve import (
    FleetConfig,
    ServingConfig,
    WorkloadConfig,
    format_serving,
    homogeneous_fleet,
    simulate_serving,
)

DATA = pathlib.Path(__file__).parent / "data"

#: scenario -> (config on its fleet string, the FleetConfig that builds
#: the same one-group fleet from a spec).  Tests swap the second in with
#: ``_run(config, fleet)``; everything else stays identical.
SCENARIOS = {
    "cnn_poisson": (
        ServingConfig(
            workload=WorkloadConfig(
                models=("resnet18",), rps=2000.0, duration_s=0.1, seed=0
            ),
            fleet=FleetConfig(fleet="yoco:4"),
        ),
        FleetConfig(fleet=homogeneous_fleet(yoco_spec(), 4)),
    ),
    "llm_lognormal": (
        ServingConfig(
            workload=WorkloadConfig(
                models=("gpt_large",),
                rps=40.0,
                duration_s=0.1,
                seed=0,
                seqlen_dist="lognormal",
            ),
            fleet=FleetConfig(fleet="yoco:2"),
        ),
        FleetConfig(fleet=homogeneous_fleet(yoco_spec(), 2)),
    ),
    "mixed_partitioned_pipelined": (
        ServingConfig(
            workload=WorkloadConfig(
                models=("resnet18", "alexnet"),
                rps=4000.0,
                duration_s=0.05,
                seed=1,
            ),
            fleet=FleetConfig(
                fleet="yoco:2:pipelined", placement="partitioned"
            ),
        ),
        FleetConfig(
            fleet=homogeneous_fleet(yoco_spec(), 2, "pipelined"),
            placement="partitioned",
        ),
    ),
}


def replace_in(config, group, **fields):
    """``config`` with ``fields`` of one sub-config group replaced."""
    sub = dataclasses.replace(getattr(config, group), **fields)
    return dataclasses.replace(config, **{group: sub})


def served_digest(result) -> str:
    """Bit-exact fingerprint of every request's journey.

    ``repr`` of the float fields keeps full precision, so a single ULP of
    drift in dispatch or energy accounting changes the digest.
    """
    lines = "\n".join(
        f"{s.request.request_id} {s.request.model} {s.chip_id} {s.batch_size} "
        f"{s.dispatch_ns!r} {s.finish_ns!r} {s.energy_pj!r} "
        f"{s.seq_len} {s.padded_seq_len}"
        for s in result.served
    )
    return hashlib.sha256(lines.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_digests():
    with open(DATA / "golden_serve_digests.json") as f:
        return json.load(f)


def _golden_text(name: str) -> str:
    return (DATA / f"golden_serve_{name}.txt").read_text().rstrip("\n")


def _run(config, fleet=None):
    """Serve ``config``, on the spec-built fleet when ``fleet`` is given."""
    if fleet is not None:
        config = dataclasses.replace(config, fleet=fleet)
    return simulate_serving(config=config)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestGoldenDifferential:
    def test_fleet_path_reproduces_golden(self, scenario, golden_digests):
        config, _ = SCENARIOS[scenario]
        report, result = _run(config)
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]

    def test_spec_built_fleet_serves_the_same_requests(self, scenario):
        """Same served tuples object-for-object, not just same digest."""
        config, spec_built = SCENARIOS[scenario]
        _, a = _run(config)
        _, b = _run(config, spec_built)
        assert a.served == b.served
        assert a.chip_busy_ns == b.chip_busy_ns
        assert a.makespan_ns == b.makespan_ns
        assert a.n_batches == b.n_batches


class TestCliAcceptance:
    """`repro serve --fleet yoco:N` == `--chips N`, byte for byte."""

    ARGS = ["serve", "--model", "resnet18", "--rps", "2000", "--seed", "0"]

    def _capture(self, capsys, extra):
        assert main(self.ARGS + extra) == 0
        return capsys.readouterr().out

    def test_chips_output_matches_golden(self, capsys):
        golden = (DATA / "golden_cli_serve_resnet18.txt").read_text()
        assert self._capture(capsys, ["--chips", "4"]) == golden

    def test_fleet_output_matches_golden(self, capsys):
        golden = (DATA / "golden_cli_serve_resnet18.txt").read_text()
        assert self._capture(capsys, ["--fleet", "yoco:4"]) == golden

    def test_hetero_fleet_is_deterministic_and_typed(self, capsys):
        extra = ["--fleet", "yoco:8,isaac:4", "--duration", "0.05"]
        first = self._capture(capsys, extra)
        second = self._capture(capsys, extra)
        assert first == second
        assert "8 x yoco + 4 x isaac" in first
        assert "chip type" in first  # the per-chip-type columns rendered
