"""Multi-region serving: phase-shifted traces, spill-over, follow-the-sun.

Pins the geo layer's contracts:

* phase-shifted diurnal traces are genuinely shifted (phase=0 is
  bit-identical to the legacy generator; phase=0.5 is not) and each
  (region, model) stream is seed-independent of the others;
* the spill pass is deterministic, conservative (every request is
  served exactly once, somewhere), and charges the RTT to the spilled
  request's client-perceived latency;
* a single region can never spill;
* elastic configs apply independently inside every region and cut the
  fleet's chip-seconds bill.
"""

import pytest

from repro.serve import (
    ElasticConfig,
    diurnal_trace,
    format_regions,
    simulate_regions,
)
from repro.serve.regions import RegionSpec, follow_the_sun


class TestPhase:
    def test_phase_zero_is_bit_identical_to_legacy(self):
        base = diurnal_trace("m", 5000.0, 0.05, seed=3)
        phased = diurnal_trace("m", 5000.0, 0.05, seed=3, phase=0.0)
        assert base == phased

    def test_phase_shifts_the_cycle(self):
        a = diurnal_trace("m", 5000.0, 0.05, seed=3, phase=0.0)
        b = diurnal_trace("m", 5000.0, 0.05, seed=3, phase=0.5)
        assert [r.arrival_ns for r in a] != [r.arrival_ns for r in b]

    def test_antiphase_peaks_oppose(self):
        # With the period equal to the horizon, phase 0 peaks in the
        # first half and phase 0.5 in the second.
        kw = dict(
            rps=20000.0, duration_s=0.05, seed=0,
            amplitude=0.9, period_s=0.05,
        )
        a = diurnal_trace("m", **kw, phase=0.0)
        b = diurnal_trace("m", **kw, phase=0.5)
        mid = 0.025e9
        first_half = sum(1 for r in a if r.arrival_ns < mid) / len(a)
        first_half_b = sum(1 for r in b if r.arrival_ns < mid) / len(b)
        assert first_half > 0.55 > 0.45 > first_half_b


class TestFollowTheSun:
    def test_even_phase_spread(self):
        specs = follow_the_sun(4, rps=1000.0, n_chips=2)
        assert [s.phase for s in specs] == [0.0, 0.25, 0.5, 0.75]
        assert all(s.n_chips == 2 and s.rps == 1000.0 for s in specs)
        assert len({s.name for s in specs}) == 4

    def test_custom_names(self):
        specs = follow_the_sun(2, 100.0, 1, names=("us", "eu"))
        assert [s.name for s in specs] == ["us", "eu"]
        with pytest.raises(ValueError):
            follow_the_sun(3, 100.0, 1, names=("us", "eu"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RegionSpec(name="", rps=100.0, n_chips=1)
        with pytest.raises(ValueError):
            RegionSpec(name="r", rps=0.0, n_chips=1)
        with pytest.raises(ValueError):
            RegionSpec(name="r", rps=100.0, n_chips=0)


class TestSimulateRegions:
    def _report(self, **overrides):
        kwargs = dict(
            models=["resnet18"],
            n_regions=3,
            rps=50000.0,
            n_chips=4,
            duration_s=0.05,
            seed=0,
            rtt_ms=1.0,
        )
        kwargs.update(overrides)
        models = kwargs.pop("models")
        return simulate_regions(models, **kwargs)

    def test_conservation_every_request_served_once(self):
        rep = self._report()
        # Per-region offered (local + spilled out) equals generated;
        # pooled served equals total offered.
        total_offered = sum(
            r.n_local + r.n_spilled_out for r in rep.regions
        )
        assert rep.n_requests == total_offered
        assert sum(r.n_spilled_in for r in rep.regions) == rep.n_spilled
        assert sum(r.n_spilled_out for r in rep.regions) == rep.n_spilled

    def test_deterministic(self):
        a = self._report()
        b = self._report()
        assert format_regions(a) == format_regions(b)
        assert a.p99_ms == b.p99_ms and a.chip_seconds == b.chip_seconds

    def test_hot_regions_spill_to_idle_ones(self):
        rep = self._report()
        assert rep.n_spilled > 0
        assert 0.0 < rep.spill_fraction < 0.5

    def test_single_region_never_spills(self):
        rep = self._report(n_regions=1)
        assert rep.n_spilled == 0
        assert len(rep.regions) == 1

    def test_models_of_one_region_arrive_independently(self):
        rep = self._report(models=["resnet18", "vgg16"], n_regions=1)
        arrivals = {"resnet18": [], "vgg16": []}
        for served in rep.regions[0].result.served:
            arrivals[served.request.model].append(served.request.arrival_ns)
        assert arrivals["resnet18"] and arrivals["vgg16"]
        assert arrivals["resnet18"] != arrivals["vgg16"]

    def test_spilled_requests_carry_the_rtt(self):
        cheap = self._report(rtt_ms=0.0)
        dear = self._report(rtt_ms=5.0)
        # Same spill decisions (thresholds don't see the RTT)...
        assert cheap.n_spilled == dear.n_spilled > 0
        # ...but the perceived tail pays for the distance.
        assert dear.p99_ms > cheap.p99_ms

    def test_elastic_regions_cut_chip_seconds(self):
        static = self._report()
        elastic = self._report(
            elastic=ElasticConfig(
                min_chips=1, max_chips=4, provision_delay_ms=2.0
            )
        )
        assert elastic.chip_seconds < static.chip_seconds
        assert all(
            r.result.elastic is not None for r in elastic.regions
        )

    def test_spilled_tag_names_source_region(self):
        rep = self._report()
        sources = {s.name for s in (r.spec for r in rep.regions)}
        for region in rep.regions:
            for s in region.result.served:
                if s.request.tenant:
                    assert s.request.tenant in sources
                    assert s.request.tenant != region.spec.name

    def test_format_regions_layout(self):
        text = format_regions(self._report())
        assert "regions           : 3 (12 chips total)" in text
        assert "spill out" in text and "p99 ms" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            self._report(rtt_ms=-1.0)
        with pytest.raises(ValueError):
            self._report(spill_threshold=0.0)
        with pytest.raises(ValueError):
            self._report(spill_window_ms=0.0)
        with pytest.raises(ValueError):
            simulate_regions([], n_regions=2)
        with pytest.raises(ValueError):
            simulate_regions(
                ["resnet18"],
                regions=(
                    RegionSpec("same", 100.0, 1),
                    RegionSpec("same", 100.0, 1),
                ),
            )
