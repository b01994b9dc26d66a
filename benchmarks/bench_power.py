"""Power/thermal envelopes: cap-aware serving studies (`repro.serve.power`).

Three request-level studies on top of the power governor:

* cap-vs-goodput sweep — one heterogeneous yoco+isaac fleet under a
  tightening per-chip power cap: goodput can only fall as the envelope
  tightens, per-group average watts stay inside the pooled budget, and
  the throttle-stall time rises.  (Tail latency is deliberately *not*
  asserted monotone: once ISAAC is throttled hard enough, the
  throttle-aware routing prices it out entirely and the tail can
  recover — a real fleet phenomenon the sweep exposes.)
* envelope face-off — identical traffic and an identical per-chip cap on
  all-YOCO vs all-ISAAC/TIMELY/RAELLA fleets: YOCO's sub-PetaOps/W
  efficiency means the same wattage envelope that leaves it unthrottled
  drives ISAAC's leakage-heavy fleet into wall-to-wall stall — the
  paper's efficiency headline restated as a deployment constraint;
* thermal limit sweep — a tightening ``t_max`` on an all-YOCO fleet:
  DVFS throttling engages with hysteresis, goodput degrades
  monotonically, and the temperature overshoot above the limit stays
  bounded by the RC dynamics.

Set ``REPRO_BENCH_SMOKE=1`` to run shortened horizons (the CI tier-2
smoke job); every assertion still holds, only the traces shrink.
"""

import os

from conftest import emit

from repro.experiments.report import format_table
from repro.serve import (
    FleetConfig,
    PowerConfig,
    ServingConfig,
    WorkloadConfig,
    simulate_serving,
)

MODEL = "resnet18"
SEED = 0

#: Smoke mode shrinks every simulated horizon by this factor.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
_HORIZON_SCALE = 0.25 if SMOKE else 1.0


def _serve(rps, duration_s, fleet):
    config = ServingConfig(
        workload=WorkloadConfig(
            models=(MODEL,),
            rps=rps,
            duration_s=duration_s * _HORIZON_SCALE,
            seed=SEED,
        ),
        fleet=fleet,
    )
    return simulate_serving(config=config)


def _cap_sweep_rows():
    rows = []
    for cap in (None, 4.0, 3.2, 3.0, 2.8):
        power = None if cap is None else PowerConfig(power_cap_w=cap)
        report, result = _serve(
            30000.0, 0.1, FleetConfig(fleet="yoco:2,isaac:2", power=power)
        )
        stall_ms = (
            result.power.total_stall_ns * 1e-6 if result.power else 0.0
        )
        groups = result.power.groups if result.power else ()
        rows.append(
            (
                cap,
                report.goodput_rps,
                report.energy_per_request_uj,
                report.per_model[0].p99_ms,
                stall_ms,
                {g.name: g for g in groups},
            )
        )
    return rows


def test_cap_sweep_is_monotone_and_budget_respecting(benchmark):
    """Tightening the envelope on a mixed fleet can only lose goodput and
    gain stall, and every feasible group's average draw honors its pooled
    budget — the acceptance property of the power governor."""
    rows = benchmark.pedantic(_cap_sweep_rows, rounds=1, iterations=1)
    goodputs = [r[1] for r in rows]
    stalls = [r[4] for r in rows]
    for looser, tighter in zip(goodputs, goodputs[1:]):
        assert tighter <= looser * (1 + 1e-9)
    for less, more in zip(stalls, stalls[1:]):
        assert more >= less * (1 - 1e-9)
    for cap, _, _, _, _, groups in rows:
        for group in groups.values():
            assert group.feasible  # every swept cap is above idle floors
            assert group.avg_w <= group.cap_w * (1 + 1e-9)
    benchmark.extra_info["goodput_uncapped"] = goodputs[0]
    benchmark.extra_info["goodput_tightest"] = goodputs[-1]
    emit(
        f"Cap-vs-goodput sweep — {MODEL} @ 30000 req/s on yoco:2,isaac:2",
        format_table(
            ("cap W/chip", "goodput req/s", "uJ/req", "p99 ms", "stall ms",
             "avg W by group"),
            [
                (
                    "-" if cap is None else f"{cap:g}",
                    f"{goodput:.0f}",
                    f"{energy:.2f}",
                    f"{p99:.3f}",
                    f"{stall:.2f}",
                    " ".join(
                        f"{name}:{group.avg_w:.2f}"
                        for name, group in groups.items()
                    ),
                )
                for cap, goodput, energy, p99, stall, groups in rows
            ],
        ),
    )


def _faceoff_rows():
    rows = []
    for fleet in ("yoco:4", "isaac:4", "timely:4", "raella:4"):
        report, result = _serve(
            20000.0,
            0.1,
            FleetConfig(fleet=fleet, power=PowerConfig(power_cap_w=3.0)),
        )
        group = result.power.groups[0]
        rows.append(
            (
                fleet,
                report.goodput_rps,
                group.stall_ns * 1e-6,
                group.avg_w,
                group.idle_w,
                group.peak_temp_c,
            )
        )
    return rows


def test_envelope_faceoff_restates_the_efficiency_headline(benchmark):
    """The same 3 W/chip envelope that leaves YOCO completely unthrottled
    drives ISAAC — whose leakage floor alone nearly fills the budget —
    into heavy stall; YOCO keeps the best goodput of the four designs."""
    rows = benchmark.pedantic(_faceoff_rows, rounds=1, iterations=1)
    by_fleet = {r[0]: r for r in rows}
    yoco, isaac = by_fleet["yoco:4"], by_fleet["isaac:4"]
    assert yoco[2] == 0.0  # no stall at all under the shared envelope
    assert isaac[2] > 0.0
    assert yoco[1] == max(r[1] for r in rows)
    assert isaac[4] > yoco[4]  # the leakage-floor gap driving it
    benchmark.extra_info["goodput_yoco"] = yoco[1]
    benchmark.extra_info["goodput_isaac"] = isaac[1]
    benchmark.extra_info["stall_ms_isaac"] = isaac[2]
    emit(
        f"Envelope face-off — {MODEL} @ 20000 req/s, 3 W/chip cap",
        format_table(
            ("fleet", "goodput req/s", "stall ms", "avg W", "idle W",
             "peak C"),
            [
                (f, f"{g:.0f}", f"{s:.2f}", f"{a:.2f}", f"{i:.2f}",
                 f"{t:.1f}")
                for f, g, s, a, i, t in rows
            ],
        ),
    )


def _thermal_rows():
    rows = []
    for t_max in (None, 45.0, 35.0, 31.0):
        power = (
            None if t_max is None
            else PowerConfig(t_max_c=t_max, thermal_tau_s=2e-3)
        )
        report, result = _serve(
            20000.0, 0.1, FleetConfig(fleet="yoco:4", power=power)
        )
        group = result.power.groups[0] if result.power else None
        rows.append(
            (
                t_max,
                report.goodput_rps,
                0.0 if group is None else group.stall_ns * 1e-6,
                0.0 if group is None else group.peak_temp_c,
            )
        )
    return rows


def test_thermal_limit_throttles_monotonically(benchmark):
    """Tightening t_max on an all-YOCO fleet: goodput can only fall and
    stall only rise, while the DVFS overshoot above the limit stays small
    (the RC node heats through the limit only until the throttle bites)."""
    rows = benchmark.pedantic(_thermal_rows, rounds=1, iterations=1)
    goodputs = [r[1] for r in rows]
    stalls = [r[2] for r in rows]
    for looser, tighter in zip(goodputs, goodputs[1:]):
        assert tighter <= looser * (1 + 1e-9)
    for less, more in zip(stalls, stalls[1:]):
        assert more >= less * (1 - 1e-9)
    for t_max, _, stall, peak_c in rows[1:]:
        if stall > 0:
            assert peak_c > t_max  # overshoot exists (thermal inertia)...
            assert peak_c < t_max + 10.0  # ...but the throttle bounds it
    benchmark.extra_info["goodput_unlimited"] = goodputs[0]
    benchmark.extra_info["goodput_tightest"] = goodputs[-1]
    emit(
        f"Thermal limit sweep — {MODEL} @ 20000 req/s on yoco:4, tau 2 ms",
        format_table(
            ("t_max C", "goodput req/s", "stall ms", "peak C"),
            [
                (
                    "-" if t is None else f"{t:g}",
                    f"{g:.0f}",
                    f"{s:.2f}",
                    f"{p:.1f}" if p else "-",
                )
                for t, g, s, p in rows
            ],
        ),
    )
