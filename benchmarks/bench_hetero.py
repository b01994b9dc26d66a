"""Heterogeneous fleets: mixed YOCO + baseline serving studies.

Three request-level studies on top of the fleet-aware cluster:

* fleet face-off — identical ResNet-18 traffic on an all-YOCO, an
  all-ISAAC and a mixed half/half fleet: the mixed fleet's energy and
  goodput must land between the pure fleets (the fleet-planning
  question the paper's Fig. 8 geomeans cannot answer);
* routing policies — fastest vs cheapest-energy vs round-robin on a
  mixed fleet: routing never changes what gets served, only where, so
  diverting batches onto the costlier design shows up purely in energy
  and tail latency;
* composition sweep — walking chips from all-YOCO to all-ISAAC under
  fixed traffic, the capacity-planning curve a fleet operator reads.

Set ``REPRO_BENCH_SMOKE=1`` to run shortened horizons (the CI tier-2
smoke job); every assertion still holds, only the traces shrink.
"""

import os

from conftest import emit

from repro.experiments.report import format_table
from repro.serve import (
    FleetConfig,
    ServingConfig,
    WorkloadConfig,
    simulate_serving,
)

MODEL = "resnet18"
SEED = 0

#: Smoke mode shrinks every simulated horizon by this factor.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
_HORIZON_SCALE = 0.25 if SMOKE else 1.0


def _horizon(duration_s: float) -> float:
    return duration_s * _HORIZON_SCALE


def _serve(fleet, rps, duration_s, routing="fastest"):
    report, _ = simulate_serving(config=ServingConfig(
        workload=WorkloadConfig(
            models=(MODEL,), rps=rps, duration_s=_horizon(duration_s),
            seed=SEED,
        ),
        fleet=FleetConfig(fleet=fleet, routing=routing),
    ))
    return report


def _faceoff_rows():
    rows = []
    for fleet in ("yoco:4", "yoco:2,isaac:2", "isaac:4"):
        report = _serve(fleet, rps=30000.0, duration_s=0.1)
        rows.append(
            (
                fleet,
                report.goodput_rps,
                report.energy_per_request_uj,
                report.per_model[0].p99_ms,
                {t.chip_type: t.n_requests for t in report.per_chip_type},
            )
        )
    return rows


def test_mixed_fleet_lands_between_the_pure_fleets(benchmark):
    """Saturating ResNet-18 load: half the YOCO chips swapped for ISAAC
    must cost energy somewhere between the pure fleets, and the mixed
    fleet actually exercises both chip types (the routing is earning its
    keep, not just parking everything on YOCO)."""
    rows = benchmark.pedantic(_faceoff_rows, rounds=1, iterations=1)
    yoco, mixed, isaac = rows
    assert yoco[2] <= mixed[2] <= isaac[2]  # energy/request ordering
    assert yoco[1] >= isaac[1]  # pure-YOCO goodput at least pure-ISAAC's
    if not SMOKE:
        # Spill-over onto the slower chips needs the queue to saturate,
        # which the shortened smoke horizon does not reach.
        assert all(n > 0 for n in mixed[4].values())  # both types served
    benchmark.extra_info["uj_per_req_yoco"] = yoco[2]
    benchmark.extra_info["uj_per_req_mixed"] = mixed[2]
    benchmark.extra_info["uj_per_req_isaac"] = isaac[2]
    emit(
        f"Fleet face-off — {MODEL} @ 30000 req/s",
        format_table(
            ("fleet", "goodput req/s", "uJ/req", "p99 ms", "reqs by type"),
            [
                (f, f"{g:.0f}", f"{e:.2f}", f"{p:.3f}",
                 " ".join(f"{k}:{v}" for k, v in by.items()))
                for f, g, e, p, by in rows
            ],
        ),
    )


def _routing_rows():
    rows = []
    for routing in ("fastest", "cheapest-energy", "round-robin"):
        report = _serve(
            "yoco:2,isaac:2", rps=2000.0, duration_s=0.1, routing=routing
        )
        rows.append(
            (
                routing,
                report.n_requests,
                report.energy_per_request_uj,
                report.per_model[0].p99_ms,
                {t.chip_type: t.n_requests for t in report.per_chip_type},
            )
        )
    return rows


def test_routing_moves_work_not_workload(benchmark):
    """At modest load every policy serves the identical request set; the
    cost-aware policies keep everything on the strictly better YOCO
    chips, while round-robin's blind rotation onto ISAAC pays real energy
    and tail-latency penalties."""
    rows = benchmark.pedantic(_routing_rows, rounds=1, iterations=1)
    by_name = {r[0]: r for r in rows}
    fastest = by_name["fastest"]
    cheapest = by_name["cheapest-energy"]
    rr = by_name["round-robin"]
    assert fastest[1] == cheapest[1] == rr[1]  # same requests completed
    # YOCO beats ISAAC on both axes for resnet, so the two cost-aware
    # policies agree and never touch ISAAC; round-robin must cost more.
    assert fastest[4]["isaac"] == 0 and cheapest[4]["isaac"] == 0
    assert rr[4]["isaac"] > 0
    assert rr[2] > fastest[2]
    assert rr[3] >= fastest[3]
    benchmark.extra_info["uj_per_req_fastest"] = fastest[2]
    benchmark.extra_info["uj_per_req_round_robin"] = rr[2]
    emit(
        f"Routing policies — {MODEL} @ 2000 req/s on yoco:2,isaac:2",
        format_table(
            ("routing", "reqs", "uJ/req", "p99 ms", "reqs by type"),
            [
                (n, r, f"{e:.2f}", f"{p:.3f}",
                 " ".join(f"{k}:{v}" for k, v in by.items()))
                for n, r, e, p, by in rows
            ],
        ),
    )


def _composition_rows():
    rows = []
    for yoco_chips in (4, 3, 2, 1, 0):
        isaac_chips = 4 - yoco_chips
        parts = []
        if yoco_chips:
            parts.append(f"yoco:{yoco_chips}")
        if isaac_chips:
            parts.append(f"isaac:{isaac_chips}")
        fleet = ",".join(parts)
        report = _serve(fleet, rps=12000.0, duration_s=0.1)
        rows.append(
            (
                fleet,
                report.goodput_rps,
                report.energy_per_request_uj,
                report.mean_chip_utilization,
            )
        )
    return rows


def test_composition_sweep_is_a_planning_curve(benchmark):
    """Walking the fleet from all-YOCO to all-ISAAC under fixed traffic:
    the endpoints bound the curve — swapping YOCO out never makes
    requests cheaper than the all-YOCO fleet or the tail better than the
    all-ISAAC fleet is bad."""
    rows = benchmark.pedantic(_composition_rows, rounds=1, iterations=1)
    energies = [r[2] for r in rows]
    goodputs = [r[1] for r in rows]
    assert min(energies) == energies[0]  # all-YOCO is the energy floor
    assert max(energies) == energies[-1]  # all-ISAAC the ceiling
    assert goodputs[0] >= goodputs[-1]
    benchmark.extra_info["goodput_all_yoco"] = goodputs[0]
    benchmark.extra_info["goodput_all_isaac"] = goodputs[-1]
    emit(
        f"Fleet composition sweep — {MODEL} @ 12000 req/s, 4 chips total",
        format_table(
            ("fleet", "goodput req/s", "uJ/req", "mean util"),
            [
                (f, f"{g:.0f}", f"{e:.2f}", f"{100 * u:.0f}%")
                for f, g, e, u in rows
            ],
        ),
    )
