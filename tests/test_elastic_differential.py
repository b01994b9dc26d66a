"""Golden guard: a full-fleet static elastic band is a no-op.

Replays the PR 3 differential scenarios (``tests/test_hetero_differential``
— imported, not copied, so the harnesses can never drift) with an
:class:`ElasticConfig` whose band pins the whole fleet
(``min == max == n_chips``).  No chip can ever join or leave, the engine
collapses the config before the fast-path gate, and the formatted
reports plus the bit-exact per-request digests must match the
pre-elastic golden captures byte for byte — alone, and stacked under
the other no-op layers (accept-all admission, an unconstrained
governor) whose own golden guards must survive the new parameter.

The counterweight proves the machinery is genuinely wired in: the same
scenarios under a *binding* band (``min_chips=1``) must produce scaling
actions and a different chip-time bill.
"""

import json
import pathlib

import pytest

from test_hetero_differential import (
    SCENARIOS,
    _golden_text,
    _run,
    replace_in,
    served_digest,
)

from repro.serve import ElasticConfig, format_serving, parse_fleet
from repro.serve.admission import AcceptAll

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden_digests():
    with open(DATA / "golden_serve_digests.json") as f:
        return json.load(f)


def _n_chips(config) -> int:
    return parse_fleet(config.fleet.fleet).n_chips


def _static_band(legacy) -> ElasticConfig:
    n = _n_chips(legacy)
    return ElasticConfig(min_chips=n, max_chips=n)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestStaticBandGolden:
    def test_static_band_matches_golden(self, scenario, golden_digests):
        config, spec_built = SCENARIOS[scenario]
        # The fleet string names the spec-built fleet: one run covers both.
        assert parse_fleet(config.fleet.fleet) == spec_built.fleet
        report, result = _run(
            replace_in(config, "fleet", elastic=_static_band(config))
        )
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]
        # The config collapsed to the inelastic path entirely.
        assert result.elastic is None

    def test_static_band_stacks_with_accept_all(
        self, scenario, golden_digests
    ):
        legacy, _ = SCENARIOS[scenario]
        banded = replace_in(legacy, "fleet", elastic=_static_band(legacy))
        report, result = _run(
            replace_in(banded, "policy", admission=AcceptAll())
        )
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]

    def test_cli_spec_static_band_matches_golden(
        self, scenario, golden_digests
    ):
        """The string form ('N:N') goes through parse_autoscale."""
        legacy, _ = SCENARIOS[scenario]
        n = _n_chips(legacy)
        report, result = _run(replace_in(legacy, "fleet", elastic=f"{n}:{n}"))
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_binding_band_actually_scales(scenario):
    """Counterweight: min_chips=1 must change the run's chip-time bill.

    The partitioned scenario instead proves the safety valve: its second
    model lives only on a chip *outside* the one-chip prefix, so the
    binding band must be refused up front rather than orphaning a queue
    mid-run.
    """
    legacy, _ = SCENARIOS[scenario]
    band = replace_in(
        legacy,
        "fleet",
        elastic=ElasticConfig(min_chips=1, max_chips=_n_chips(legacy)),
    )
    if legacy.fleet.placement == "partitioned":
        with pytest.raises(ValueError, match="no hosting chip"):
            _run(band)
        return
    _, result = _run(band)
    et = result.elastic
    assert et is not None
    assert et.timeline[0] == (0.0, 1)  # cold start at min_chips
    assert et.chip_seconds < et.static_chip_seconds
