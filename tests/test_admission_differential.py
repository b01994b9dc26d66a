"""Golden guard: an open-loop accept-all admission layer is a no-op.

Replays the PR 3 differential scenarios (``tests/test_hetero_differential``
— imported, not copied, so the harnesses can never drift) through the
admission-enabled engine path with the explicit :class:`AcceptAll` policy.
Admission then gates every arrival but rejects none, touches no float of
the simulation, and the formatted reports plus the bit-exact per-request
digests must match the pre-admission golden captures byte for byte —
alone, and stacked under an *unconstrained* power governor (the PR 4
no-op invariant must survive the new layer too).

The counterweight classes prove the layer is genuinely wired in: a
binding queue-depth cap must shed requests and change the digest, while
every request it does serve is one the golden run served (same ids, fewer
of them) and every offered request is accounted for exactly once.
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
from repro.serve.admission import AcceptAll


@pytest.fixture(scope="module")
def golden_digests():
    import json
    import pathlib

    data = pathlib.Path(__file__).parent / "data"
    with open(data / "golden_serve_digests.json") as f:
        return json.load(f)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestAcceptAllGolden:
    def test_accept_all_matches_golden(self, scenario, golden_digests):
        config, spec_built = SCENARIOS[scenario]
        # The fleet string names the spec-built fleet: one run covers both.
        assert parse_fleet(config.fleet.fleet) == spec_built.fleet
        report, result = _run(
            replace_in(config, "policy", admission=AcceptAll())
        )
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]
        # The layer ran (the result knows its policy) yet shed nothing.
        assert result.admission == "accept-all"
        assert result.rejected == () and result.n_rejections == 0

    def test_accept_all_spec_string_matches_golden(
        self, scenario, golden_digests
    ):
        legacy, _ = SCENARIOS[scenario]
        report, result = _run(
            replace_in(legacy, "policy", admission="accept-all")
        )
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]

    def test_accept_all_under_unconstrained_governor_matches_golden(
        self, scenario, golden_digests
    ):
        """Admission and the power no-op stack without perturbing a float."""
        legacy, _ = SCENARIOS[scenario]
        gated = replace_in(legacy, "policy", admission=AcceptAll())
        report, result = _run(replace_in(gated, "fleet", power=PowerConfig()))
        assert format_serving(report) == _golden_text(scenario)
        assert served_digest(result) == golden_digests[scenario]
        assert result.power is not None and not result.power.constrained


class TestBindingAdmissionChangesTheRun:
    def test_binding_queue_cap_diverges_from_golden_digest(
        self, golden_digests
    ):
        legacy, _ = SCENARIOS["cnn_poisson"]
        _, result = _run(replace_in(legacy, "policy", admission="queue-cap:2"))
        assert result.n_dropped > 0
        assert served_digest(result) != golden_digests["cnn_poisson"]

    def test_served_set_shrinks_but_never_grows(self):
        legacy, _ = SCENARIOS["cnn_poisson"]
        _, full = _run(legacy)
        _, shed = _run(replace_in(legacy, "policy", admission="queue-cap:2"))
        full_ids = {s.request.request_id for s in full.served}
        shed_ids = {s.request.request_id for s in shed.served}
        assert shed_ids < full_ids  # strictly fewer, all known

    def test_every_offered_request_is_accounted_once(self):
        legacy, _ = SCENARIOS["cnn_poisson"]
        _, full = _run(legacy)
        _, shed = _run(replace_in(legacy, "policy", admission="queue-cap:2"))
        served_ids = [s.request.request_id for s in shed.served]
        dropped_ids = [r.request.request_id for r in shed.rejected]
        assert len(served_ids) == len(set(served_ids))
        assert len(dropped_ids) == len(set(dropped_ids))
        assert set(served_ids) | set(dropped_ids) == {
            s.request.request_id for s in full.served
        }
        assert set(served_ids) & set(dropped_ids) == set()
        assert shed.n_offered == full.n_requests

    def test_admission_report_line_renders_only_when_it_can_shed(self):
        legacy, _ = SCENARIOS["cnn_poisson"]
        report, _ = _run(replace_in(legacy, "policy", admission="queue-cap:2"))
        assert report.has_admission
        assert "admission         : queue-cap" in format_serving(report)
        accept, _ = _run(replace_in(legacy, "policy", admission=AcceptAll()))
        assert not accept.has_admission
        assert "admission" not in format_serving(accept)
