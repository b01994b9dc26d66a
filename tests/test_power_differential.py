"""Golden guard: an *unconstrained* power governor is provably a no-op.

Replays the PR 3 differential scenarios (``tests/test_hetero_differential``
— which this file deliberately imports rather than copies, so the two
harnesses can never drift apart) through the power-governor engine path
with no cap and no thermal limit configured.  The governor then traces
power and temperature but every slowdown factor is exactly 1.0, so the
formatted reports and the bit-exact per-request digests must match the
pre-power golden captures byte for byte.

The final class is the counterweight: a *binding* cap must change the
digest (the governor is genuinely wired into the event loop, not routed
around), while still serving the identical request set.
"""

import pytest

from test_hetero_differential import (
    SCENARIOS,
    _golden_text,
    _run,
    replace_in,
    served_digest,
)

from repro.serve import PowerConfig, format_serving, parse_fleet


@pytest.fixture(scope="module")
def golden_digests():
    import json
    import pathlib

    data = pathlib.Path(__file__).parent / "data"
    with open(data / "golden_serve_digests.json") as f:
        return json.load(f)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestUncappedGovernorGolden:
    def test_uncapped_governor_matches_golden(self, scenario, golden_digests):
        config, spec_built = SCENARIOS[scenario]
        # The fleet string names the spec-built fleet: one run covers both.
        assert parse_fleet(config.fleet.fleet) == spec_built.fleet
        report, result = _run(replace_in(config, "fleet", power=PowerConfig()))
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]
        # The trace rode along without perturbing a single float.
        assert result.power is not None and not result.power.constrained

    def test_thermal_tracing_alone_is_still_unconstrained(
        self, scenario, golden_digests
    ):
        """A non-default tau only changes the *trace*, never the run."""
        legacy, _ = SCENARIOS[scenario]
        config = PowerConfig(thermal_tau_s=1e-4)
        report, result = _run(replace_in(legacy, "fleet", power=config))
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]


class TestBindingCapChangesTheRun:
    def test_binding_cap_diverges_from_golden_digest(self, golden_digests):
        legacy, _ = SCENARIOS["cnn_poisson"]
        _, result = _run(
            replace_in(legacy, "fleet", power=PowerConfig(power_cap_w=0.5))
        )
        assert served_digest(result) != golden_digests["cnn_poisson"]

    def test_but_serves_the_same_requests(self):
        legacy, _ = SCENARIOS["cnn_poisson"]
        _, blind = _run(legacy)
        _, capped = _run(
            replace_in(legacy, "fleet", power=PowerConfig(power_cap_w=0.5))
        )
        assert [s.request for s in capped.served] == [
            s.request for s in blind.served
        ]
