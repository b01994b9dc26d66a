"""Golden guard: every observability output file replays byte for byte.

Nine runs, each rendered twice — once to a JSONL lifecycle trace plus a
CSV metrics series, once to a Chrome ``trace_event`` file plus a JSON
metrics series — are pinned by the sha256 of each output file.  The
``trace-summary`` text of each JSONL trace is pinned verbatim.  The
metrics window is 0.5 ms, so every run spans several windows.

Between them the runs emit every lifecycle event kind on both engine
loops (``TestScenariosCoverEveryEvent`` checks that):

* ``turbo_diurnal`` and ``cnn_poisson`` take the single-slot turbo loop;
* ``llm_lognormal`` and ``mixed_partitioned_pipelined`` are the
  heterogeneous-differential scenarios on the general loop;
* ``tenants_preempt_rate`` — weighted-fair tenants with preemption and a
  ``rate=`` token bucket (``pre``, final ``rej``);
* ``clients_retry`` — closed-loop clients with retries (non-final
  ``rej``, retry arrivals);
* ``prefill_decode`` — prefill-decode placement with decode (``dit``);
* ``autoscale`` — an autoscaled band (scale up, drain, park, activate);
* ``power_tmax`` — a power cap plus ``t_max`` (``throttle`` and the
  ``power_w`` column).

Regenerate the goldens only on an intentional change to an output
format or to the simulation itself::

    PYTHONPATH=src python tests/test_observe_golden.py --write
"""

import collections
import dataclasses
import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from test_hetero_differential import SCENARIOS as HETERO

from repro.cli import build_parser, serve_config_from_args
from repro.serve import format_trace_summary, simulate_serving, summarize_trace

DIGESTS = pathlib.Path(__file__).parent / "data" / "golden_observe_digests.json"

#: Simulated milliseconds per metrics window.
WINDOW_MS = 0.5


def _cli(argv: str):
    return serve_config_from_args(build_parser().parse_args(["serve", *argv.split()]))


SCENARIOS = {
    "turbo_diurnal": _cli(
        "--model resnet18 --chips 2 --rps 60000 --duration 0.01 "
        "--trace diurnal --seed 0"
    ),
    "cnn_poisson": HETERO["cnn_poisson"][0],
    "llm_lognormal": HETERO["llm_lognormal"][0],
    "mixed_partitioned_pipelined": HETERO["mixed_partitioned_pipelined"][0],
    "tenants_preempt_rate": _cli(
        "--model resnet18 --chips 1 --tenants "
        "chat:interactive:w=4:poisson@2000:deadline=0.08,"
        "bulk:batch:poisson@60000:rate=30000 "
        "--scheduler weighted-fair --preempt --duration 0.01 --seed 0"
    ),
    "clients_retry": _cli(
        "--model resnet18 --chips 1 --clients 32 --think-time 0.2 "
        "--retries 2 --admission queue-cap:4 --duration 0.01 --seed 0"
    ),
    "prefill_decode": _cli(
        "--model mobilebert --fleet yoco:2,isaac:2 --placement prefill-decode "
        "--decode-dist lognormal --decode-mean 8 --rps 4000 --duration 0.01 "
        "--seed 0"
    ),
    "autoscale": _cli(
        "--model resnet18 --chips 8 --rps 60000 --duration 0.03 "
        "--trace diurnal --autoscale 1:8 --seed 0"
    ),
    "power_tmax": _cli(
        "--model resnet18 --chips 4 --rps 40000 --duration 0.01 "
        "--power-cap 0.5 --t-max 60 --seed 0"
    ),
}

#: One run per pair: a lifecycle trace file and a metrics file.
RENDERS = (("trace.jsonl", "metrics.csv"), ("trace.json", "metrics.json"))


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def render(scenario: str, directory: pathlib.Path) -> dict:
    """Run ``scenario`` once per :data:`RENDERS` pair into ``directory``;
    return each output file's digest and the JSONL trace's summary."""
    config = SCENARIOS[scenario]
    pinned = {}
    for trace_name, metrics_name in RENDERS:
        trace_path, metrics_path = directory / trace_name, directory / metrics_name
        observe = dataclasses.replace(
            config.observe,
            trace_file=str(trace_path),
            metrics_file=str(metrics_path),
            metrics_window_ms=WINDOW_MS,
        )
        simulate_serving(dataclasses.replace(config, observe=observe))
        pinned[trace_name] = _sha256(trace_path)
        pinned[metrics_name] = _sha256(metrics_path)
    summary = summarize_trace(str(directory / "trace.jsonl"))
    pinned["trace-summary"] = format_trace_summary(
        dataclasses.replace(summary, path="trace.jsonl")
    )
    return pinned


@pytest.fixture(scope="module")
def golden():
    with open(DIGESTS) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    """scenario -> (pinned outputs, directory holding the files)."""
    out = {}
    for scenario in SCENARIOS:
        directory = tmp_path_factory.mktemp(scenario)
        out[scenario] = render(scenario, directory), directory
    return out


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_outputs_replay_golden(scenario, golden, rendered):
    assert rendered[scenario][0] == golden[scenario]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_outputs_replay_golden_across_chunk_boundaries(
    scenario, golden, tmp_path, monkeypatch
):
    """A chunk of 7 events (a small prime, so boundaries land on every
    event kind) shows any renderer state lost between chunks."""
    monkeypatch.setattr("repro.serve.observe.CHUNK_EVENTS", 7)
    assert render(scenario, tmp_path) == golden[scenario]


def _event_kinds(path: pathlib.Path) -> collections.Counter:
    kinds = collections.Counter()
    with open(path) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev["ev"]
            if kind == "rej":
                kind += " final" if ev["final"] else " retry"
            elif kind == "scale":
                kind += " " + ev["kind"]
            elif kind == "throttle":
                kind += " on" if ev["on"] else " off"
            elif kind == "dsp" and "ov" in ev:
                kind += " ov"
            kinds[kind] += 1
    return kinds


class TestScenariosCoverEveryEvent:
    """The pinned runs between them emit every event kind the engine has."""

    def test_every_event_kind_is_pinned(self, rendered):
        seen = collections.Counter()
        for _, directory in rendered.values():
            seen.update(_event_kinds(directory / "trace.jsonl"))
        assert set(seen) == {
            "begin", "arr", "enq", "rej final", "rej retry", "dsp", "dsp ov",
            "cmp", "pre", "dit", "scale up", "scale drain", "scale park",
            "scale activate", "throttle on", "throttle off", "end",
        }

    def test_power_column_is_filled(self, rendered):
        rows = json.loads((rendered["power_tmax"][1] / "metrics.json").read_text())
        assert all(r["power_w"] is not None for r in rows)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_run_spans_several_windows(self, scenario, rendered):
        rows = json.loads((rendered[scenario][1] / "metrics.json").read_text())
        assert len(rows) >= 4


if __name__ == "__main__" and "--write" in sys.argv:
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: render(name, pathlib.Path(tmp)) for name in SCENARIOS}
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
