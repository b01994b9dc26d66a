"""Geo-distributed serving: phase-shifted regions with spill-over.

A :class:`RegionSpec` describes one serving region — its fleet size, its
offered load, and the *phase* of its diurnal cycle.  N regions spread
around the globe see the same day/night sine wave shifted by ``1/N`` of
a period each (:func:`follow_the_sun`), so one region's peak lands in
another's trough — the classic follow-the-sun capacity argument.

:func:`simulate_regions` runs every region through its own
:class:`~repro.serve.engine.ServingEngine` (optionally elastic, via
:class:`~repro.serve.elastic.ElasticConfig`) after a deterministic
**spill-over** pass: the horizon is cut into fixed windows, and a window
whose local arrivals exceed the region's capacity at the configured
utilization threshold re-homes its *latest* excess arrivals to the
region with the most headroom in that window.  A spilled request pays
the inter-region round trip — it arrives at the remote region half an
RTT late, and its client-perceived latency carries the full RTT on top
of the remote engine latency.  Spilled requests are tagged with their
source region (via ``Request.tenant``), so both ends account for them.

Everything is seeded and window-deterministic: two runs of the same
(specs, seed, knobs) produce bit-identical traces, spill decisions and
reports.  The spill pass estimates headroom from *offered* counts — it
models DNS-style load steering on observed demand, not an oracle over
queue states.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro import seeds
from repro.arch.accelerator import yoco_spec
from repro.experiments.report import format_table
from repro.models.zoo import get_workload
from repro.serve.batching import BatchingPolicy
from repro.serve.cluster import Cluster
from repro.serve.elastic import ElasticConfig
from repro.serve.engine import ServingEngine, ServingResult
from repro.serve.fleet import homogeneous_fleet
from repro.serve.metrics import (
    ServingReport,
    _percentiles_from_sorted,
    summarize,
)
from repro.serve.traces import Request, diurnal_trace, merge_traces

__all__ = [
    "RegionSpec",
    "RegionResult",
    "RegionsReport",
    "follow_the_sun",
    "format_regions",
    "simulate_regions",
]


@dataclasses.dataclass(frozen=True)
class RegionSpec:
    """One serving region: a fleet, its load, and its diurnal phase.

    ``phase`` is the fraction of the diurnal period this region's cycle
    is shifted by (0.5 = antiphase — its peak is the reference region's
    trough).  ``rps`` is the region's *local* mean offered rate.
    """

    name: str
    rps: float
    n_chips: int
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region name must be non-empty")
        if self.rps <= 0:
            raise ValueError("region rps must be positive")
        if self.n_chips < 1:
            raise ValueError("region n_chips must be >= 1")


def follow_the_sun(
    n_regions: int,
    rps: float,
    n_chips: int,
    names: Optional[Sequence[str]] = None,
) -> Tuple[RegionSpec, ...]:
    """Equal regions with diurnal phases spread evenly over the cycle.

    Region ``i`` gets ``phase = i / n_regions``, so the peaks march
    around the globe and the *aggregate* offered load stays nearly flat
    — the setting where spill-over and elastic fleets pay off most.
    """
    if n_regions < 1:
        raise ValueError("need at least one region")
    if names is None:
        names = tuple(f"region-{i}" for i in range(n_regions))
    if len(names) != n_regions:
        raise ValueError("names must match n_regions")
    return tuple(
        RegionSpec(
            name=names[i], rps=rps, n_chips=n_chips, phase=i / n_regions
        )
        for i in range(n_regions)
    )


@dataclasses.dataclass(frozen=True)
class RegionResult:
    """One region's run: the standard report plus spill accounting.

    ``p99_ms`` / ``p50_ms`` are **client-perceived** over requests homed
    to this region's clients *plus* requests its clients spilled out —
    a spilled request's latency includes the inter-region RTT, charged
    to the region that couldn't serve it locally.
    """

    spec: RegionSpec
    report: ServingReport
    result: ServingResult
    n_local: int  # locally offered requests served locally
    n_spilled_out: int  # locally offered requests re-homed elsewhere
    n_spilled_in: int  # remote requests this region absorbed
    p50_ms: float
    p99_ms: float

    @property
    def spill_out_fraction(self) -> float:
        offered = self.n_local + self.n_spilled_out
        return self.n_spilled_out / offered if offered else 0.0


@dataclasses.dataclass(frozen=True)
class RegionsReport:
    """The fleet-of-fleets roll-up :func:`simulate_regions` returns."""

    regions: Tuple[RegionResult, ...]
    rtt_ms: float
    n_requests: int
    n_spilled: int
    p50_ms: float  # client-perceived, all regions pooled
    p99_ms: float
    chip_seconds: float  # elastic timelines where present, else static

    @property
    def spill_fraction(self) -> float:
        return self.n_spilled / self.n_requests if self.n_requests else 0.0

    @property
    def n_chips(self) -> int:
        return sum(r.spec.n_chips for r in self.regions)


def _spill_pass(
    local: Dict[str, Tuple[Request, ...]],
    specs: Sequence[RegionSpec],
    per_chip_rps: float,
    horizon_ns: float,
    window_ns: float,
    threshold: float,
    rtt_ns: float,
) -> Tuple[Dict[str, List[Request]], Dict[str, int], Dict[str, int]]:
    """Deterministic window-based re-homing of over-capacity arrivals.

    Returns the post-spill per-region request lists (spilled requests
    arrive half an RTT late, tagged with their source region) plus the
    per-region spilled-out / spilled-in counts.
    """
    n_windows = max(1, int(math.ceil(horizon_ns / window_ns)))
    names = [s.name for s in specs]
    cap = {
        s.name: s.n_chips * per_chip_rps * threshold * (window_ns * 1e-9)
        for s in specs
    }
    # Window-bucketed local arrivals (already time-sorted per region).
    buckets: Dict[str, List[List[Request]]] = {
        name: [[] for _ in range(n_windows)] for name in names
    }
    for name in names:
        for r in local[name]:
            k = min(n_windows - 1, int(r.arrival_ns // window_ns))
            buckets[name][k].append(r)
    out: Dict[str, List[Request]] = {name: [] for name in names}
    spilled_out = {name: 0 for name in names}
    spilled_in = {name: 0 for name in names}
    for k in range(n_windows):
        # Headroom from offered counts; spill-ins charge the window they
        # land in, so one hot window cannot overload its rescuer.
        load = {name: float(len(buckets[name][k])) for name in names}
        for name in names:
            window = buckets[name][k]
            excess = len(window) - int(cap[name])
            if excess <= 0 or len(names) == 1:
                out[name].extend(window)
                continue
            keep = window[: len(window) - excess]
            overflow = window[len(window) - excess :]
            out[name].extend(keep)
            load[name] -= len(overflow)
            for r in overflow:
                # Latest arrivals spill first (they queue deepest); each
                # goes to the max-headroom region, ties broken by spec
                # order.  No headroom anywhere -> it stays home.
                dest = max(
                    (n for n in names if n != name),
                    key=lambda n: (cap[n] - load[n], -names.index(n)),
                )
                if cap[dest] - load[dest] < 1.0:
                    out[name].append(r)
                    load[name] += 1.0
                    continue
                load[dest] += 1.0
                spilled_out[name] += 1
                spilled_in[dest] += 1
                out[dest].append(
                    dataclasses.replace(
                        r,
                        arrival_ns=r.arrival_ns + rtt_ns / 2.0,
                        tenant=name,
                    )
                )
    return out, spilled_out, spilled_in


def simulate_regions(
    models: Sequence[str],
    regions: Optional[Sequence[RegionSpec]] = None,
    n_regions: int = 3,
    rps: float = 2000.0,
    n_chips: int = 4,
    duration_s: float = 0.1,
    seed: int = 0,
    rtt_ms: float = 1.0,
    spill_threshold: float = 0.9,
    spill_window_ms: float = 5.0,
    amplitude: float = 0.8,
    period_s: Optional[float] = None,
    elastic: Optional[ElasticConfig] = None,
    max_batch_size: int = 8,
    window_ms: float = 0.2,
    slo_ms: Optional[float] = None,
) -> RegionsReport:
    """Run a multi-region serving study end to end.

    Without an explicit ``regions`` list, :func:`follow_the_sun` builds
    ``n_regions`` equal regions with evenly spread diurnal phases, each
    offering ``rps`` over its own seeded traces (each (region, model)
    pair has its own lane of :mod:`repro.seeds`, so adding a region
    never perturbs another's arrivals and two models of one region never
    arrive in lockstep).  The diurnal
    period defaults to the whole horizon — one full day compressed into
    the run.  ``elastic`` (optional) applies the same autoscaling
    contract independently inside every region.

    ``rtt_ms`` is the inter-region round trip: a spilled request arrives
    at its rescuer half an RTT late and its client-perceived latency —
    what the pooled ``p50_ms`` / ``p99_ms`` report — carries the full
    RTT on top of the remote engine latency.
    """
    if not models:
        raise ValueError("need at least one model to serve")
    if regions is None:
        regions = follow_the_sun(n_regions, rps, n_chips)
    regions = tuple(regions)
    if len({s.name for s in regions}) != len(regions):
        raise ValueError("region names must be unique")
    if rtt_ms < 0:
        raise ValueError("rtt_ms must be non-negative")
    if not 0.0 < spill_threshold <= 1.0:
        raise ValueError("spill_threshold must be in (0, 1]")
    if spill_window_ms <= 0:
        raise ValueError("spill_window_ms must be positive")
    workloads = [get_workload(name) for name in models]
    clusters = {
        s.name: Cluster(workloads, homogeneous_fleet(yoco_spec(), s.n_chips))
        for s in regions
    }
    ref_latency_ns = max(
        clusters[regions[0].name].reference_latency_ns(m) for m in models
    )
    per_chip_rps = 1e9 / ref_latency_ns
    period = period_s if period_s is not None else duration_s
    local: Dict[str, Tuple[Request, ...]] = {}
    for i, spec in enumerate(regions):
        per_model = spec.rps / len(models)
        local[spec.name] = merge_traces(
            *(
                diurnal_trace(
                    m,
                    per_model,
                    duration_s,
                    seed=seeds.region_arrival(seed, i, j),
                    amplitude=amplitude,
                    period_s=period,
                    phase=spec.phase,
                )
                for j, m in enumerate(models)
            )
        )
    rtt_ns = rtt_ms * 1e6
    homed, spilled_out, spilled_in = _spill_pass(
        local,
        regions,
        per_chip_rps,
        duration_s * 1e9,
        spill_window_ms * 1e6,
        spill_threshold,
        rtt_ns,
    )
    policy = BatchingPolicy(
        max_batch_size=max_batch_size, window_ns=window_ms * 1e6
    )
    results: List[tuple] = []
    # Client-perceived latency pools: keyed by the region whose *clients*
    # issued the request (the spill source), not where it was served.
    perceived: Dict[str, List[float]] = {s.name: [] for s in regions}
    for spec in regions:
        # Post-spill traces interleave two seeded streams, so re-sort and
        # renumber: the engine's tie-breaks key on (arrival, request_id).
        trace = tuple(
            dataclasses.replace(r, request_id=i)
            for i, r in enumerate(
                sorted(
                    homed[spec.name],
                    key=lambda r: (r.arrival_ns, r.request_id),
                )
            )
        )
        engine = ServingEngine(
            clusters[spec.name], policy, elastic=elastic
        )
        result = engine.run(trace)
        report = summarize(result, clusters[spec.name], slo_ms=slo_ms)
        # Spilled requests carry their source region as the tenant tag.
        served = result.served.requests
        lat_ms = result.served.latency_ms()
        n_local = 0
        for code, source in enumerate(served.tenant_names):
            mine = lat_ms[served.tenant_code == code]
            if source:
                # Spilled here: charge the full round trip to the source
                # region's clients (half already sits in the shifted
                # arrival; the other half is the response's way back).
                perceived[source].extend((mine + rtt_ms).tolist())
            else:
                perceived[spec.name].extend(mine.tolist())
                n_local = len(mine)
        results.append((spec, report, result, n_local))
    region_results: List[RegionResult] = []
    for spec, report, result, n_local in results:
        lats = sorted(perceived[spec.name])
        p50, p99 = (
            _percentiles_from_sorted(lats, (50.0, 99.0))
            if lats
            else (0.0, 0.0)
        )
        region_results.append(
            RegionResult(
                spec=spec,
                report=report,
                result=result,
                n_local=n_local,
                n_spilled_out=spilled_out[spec.name],
                n_spilled_in=spilled_in[spec.name],
                p50_ms=p50,
                p99_ms=p99,
            )
        )
    pooled = sorted(
        lat for lats in perceived.values() for lat in lats
    )
    p50_all, p99_all = (
        _percentiles_from_sorted(pooled, (50.0, 99.0))
        if pooled
        else (0.0, 0.0)
    )
    chip_seconds = 0.0
    for r in region_results:
        if r.result.elastic is not None:
            chip_seconds += r.result.elastic.chip_seconds
        else:
            chip_seconds += r.spec.n_chips * r.result.makespan_ns * 1e-9
    return RegionsReport(
        regions=tuple(region_results),
        rtt_ms=rtt_ms,
        n_requests=len(pooled),
        n_spilled=sum(spilled_out.values()),
        p50_ms=p50_all,
        p99_ms=p99_all,
        chip_seconds=chip_seconds,
    )


def format_regions(report: RegionsReport) -> str:
    """Render the multi-region roll-up in the repo's artifact style."""
    lines = [
        f"regions           : {len(report.regions)} "
        f"({report.n_chips} chips total), rtt {report.rtt_ms:g} ms",
        f"requests served   : {report.n_requests}, spilled "
        f"{report.n_spilled} ({100 * report.spill_fraction:.1f} %)",
        f"client latency    : p50 {report.p50_ms:.4f} ms, "
        f"p99 {report.p99_ms:.4f} ms (pooled, incl. spill RTT)",
        f"fleet cost        : {report.chip_seconds * 1e3:.3f} chip-ms",
        "",
    ]
    rows = []
    for r in report.regions:
        et = r.result.elastic
        rows.append(
            (
                r.spec.name,
                f"{r.spec.phase:.2f}",
                r.spec.n_chips,
                r.n_local + r.n_spilled_out,
                f"{r.n_spilled_out} ({100 * r.spill_out_fraction:.0f}%)",
                r.n_spilled_in,
                f"{r.p50_ms:.4f}",
                f"{r.p99_ms:.4f}",
                f"{100 * r.report.mean_chip_utilization:.1f}%",
                (
                    f"{et.min_serving}..{et.max_serving}"
                    if et is not None
                    else "static"
                ),
            )
        )
    lines.append(
        format_table(
            ("region", "phase", "chips", "offered", "spill out",
             "spill in", "p50 ms", "p99 ms", "util", "serving"),
            rows,
        )
    )
    return "\n".join(lines)
