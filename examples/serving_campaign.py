#!/usr/bin/env python3
"""Serving campaign: YOCO vs the Fig. 8 baselines under identical traffic.

Every accelerator gets the same 4-chip cluster, the same dynamic-batching
policy and the *same* request trace (same seed — arrivals are identical
down to the nanosecond), so the differences in tail latency, goodput and
energy per request come purely from the per-inference cost models the
paper derives.  The load sweep walks offered traffic up until the weakest
design saturates, which is where serving metrics separate architectures
far more dramatically than the paper's single-inference geomeans.

An optional third argument draws per-request context lengths for LLM
models (any of the `repro.serve` seqlen distributions); the table then
adds token goodput and padding overhead, still under identical traffic
*and* identical context lengths for every accelerator.

The campaign closes with a *mixed-fleet* scenario — the same traffic on a
half-YOCO/half-ISAAC heterogeneous cluster under each routing policy,
with the per-chip-type breakdown the fleet report adds — a *power
envelope* scenario: the same mixed fleet under a tightening per-chip
power cap (`repro.serve.power`), where batches on a group over its
pooled budget are DVFS-stretched — and a *closed-loop* scenario
(`repro.serve.clients`): a growing population of sessions that block on
completion and think between requests, walked past the saturation knee,
then held there behind SLO-aware admission control
(`repro.serve.admission`).  That turns the paper's TOPS/W headline into
the questions a datacenter actually asks: how much goodput survives
inside a fixed wattage, and how many concurrent users fit at the SLO?

Run:  python examples/serving_campaign.py [model] [chips] [seqlen_dist]
      (defaults: resnet18 on 4 chips; try vit, qdqbert, gpt_large, ...)
      e.g. python examples/serving_campaign.py gpt_large 4 lognormal
"""

import pathlib
import sys
import tempfile

from repro.arch import yoco_spec
from repro.baselines import isaac_spec, raella_spec, timely_spec
from repro.experiments.report import format_ratio, format_table, section
from repro.models import BENCHMARK_MODELS
from repro.models.zoo import get_workload
from repro.serve import (
    Cluster,
    DecodeConfig,
    ElasticConfig,
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    PowerConfig,
    ROUTING_POLICIES,
    SEQLEN_DISTS,
    ServingConfig,
    Tenant,
    WorkloadConfig,
    estimated_saturation_clients,
    homogeneous_fleet,
    simulate_regions,
    simulate_serving,
    summarize_trace,
)

SPECS = {
    "yoco": yoco_spec(),
    "isaac": isaac_spec(),
    "raella": raella_spec(),
    "timely": timely_spec(),
}


def _anchor_config(model: str, chips: int) -> ServingConfig:
    """Batch-1, window-off run whose p50 is the pure service latency."""
    return ServingConfig(
        workload=WorkloadConfig(models=(model,), rps=100.0, duration_s=0.05),
        fleet=FleetConfig(fleet=f"yoco:{chips}"),
        policy=PolicyConfig(max_batch_size=1, window_ms=0.0),
    )


def campaign(model: str, chips: int, rps: float, seed: int = 0, seqlen_dist=None):
    """One load point: every accelerator serves the identical trace."""
    rows = {}
    for name, spec in SPECS.items():
        report, _ = simulate_serving(config=ServingConfig(
            workload=WorkloadConfig(
                models=(model,), rps=rps, seed=seed, seqlen_dist=seqlen_dist,
            ),
            fleet=FleetConfig(fleet=homogeneous_fleet(spec, chips)),
        ))
        rows[name] = report
    return rows


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "resnet18"
    chips = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    seqlen_dist = sys.argv[3] if len(sys.argv) > 3 else None
    if model not in BENCHMARK_MODELS:
        raise SystemExit(f"unknown model {model!r}; pick from {BENCHMARK_MODELS}")
    if seqlen_dist is not None and seqlen_dist not in SEQLEN_DISTS:
        raise SystemExit(
            f"unknown seqlen dist {seqlen_dist!r}; pick from {SEQLEN_DISTS}"
        )

    # Anchor the sweep on YOCO's batch-1 service rate for the model
    # (window off so queueing and batching delay don't pollute the anchor).
    base, _ = simulate_serving(config=_anchor_config(model, chips))
    service_ms = base.per_model[0].p50_ms
    peak_rps = chips / (service_ms * 1e-3)

    print(section(f"Serving campaign — {model}, {chips} chips per accelerator"))
    print(f"YOCO batch-1 service: {service_ms:.3f} ms "
          f"=> ~{peak_rps:.0f} req/s cluster ceiling\n")

    if seqlen_dist:
        print(f"per-request contexts: {seqlen_dist} around the native length\n")

    for fraction in (0.2, 0.6, 1.2):
        rps = fraction * peak_rps
        rows = campaign(model, chips, rps, seqlen_dist=seqlen_dist)
        print(f"--- offered load {rps:.0f} req/s "
              f"({100 * fraction:.0f} % of YOCO ceiling) ---")
        if any(not r.per_model for r in rows.values()):
            print("(load too low for the simulated horizon — no arrivals)\n")
            continue
        has_tokens = any(r.has_tokens for r in rows.values())
        header = ["accelerator", "p50 ms", "p99 ms", "goodput req/s",
                  "SLO attain", "uJ/req", "mean util"]
        if has_tokens:
            header += ["tok/s", "pad%"]
        body = []
        for name, r in rows.items():
            row = [
                name,
                f"{r.per_model[0].p50_ms:.3f}",
                f"{r.per_model[0].p99_ms:.3f}",
                f"{r.goodput_rps:.0f}",
                f"{100 * r.slo_attainment:.1f}%",
                f"{r.energy_per_request_uj:.2f}",
                f"{100 * r.mean_chip_utilization:.0f}%",
            ]
            if has_tokens:
                row += [f"{r.tokens_per_s:.0f}", f"{100 * r.padding_overhead:.1f}%"]
            body.append(tuple(row))
        print(format_table(tuple(header), body))
        yoco, isaac = rows["yoco"], rows["isaac"]
        print(
            f"YOCO vs ISAAC: "
            f"{format_ratio(isaac.energy_per_request_uj / yoco.energy_per_request_uj)}"
            f" energy/request, "
            f"{format_ratio(max(1e-9, isaac.per_model[0].p99_ms) / max(1e-9, yoco.per_model[0].p99_ms))}"
            f" p99 latency\n"
        )

    mixed_fleet_scenario(model, chips, 0.6 * peak_rps, seqlen_dist)
    power_envelope_scenario(model, chips, 1.2 * peak_rps)
    prefill_decode_scenario(model, chips)
    closed_loop_scenario(model, chips)
    multi_tenant_scenario(model, chips, peak_rps)
    observability_scenario(model, chips, peak_rps)
    follow_the_sun_scenario(model, chips, peak_rps)


def mixed_fleet_scenario(model, chips, rps, seqlen_dist):
    """The same traffic on a heterogeneous half-YOCO/half-ISAAC fleet."""
    yoco_chips = max(1, chips // 2)
    isaac_chips = max(1, chips - yoco_chips)
    fleet = f"yoco:{yoco_chips},isaac:{isaac_chips}"
    print(section(f"Mixed fleet — {fleet}, {rps:.0f} req/s, per routing policy"))
    rows = []
    for routing in ROUTING_POLICIES:
        report, _ = simulate_serving(config=ServingConfig(
            workload=WorkloadConfig(
                models=(model,), rps=rps, seqlen_dist=seqlen_dist,
            ),
            fleet=FleetConfig(fleet=fleet, routing=routing),
        ))
        if not report.per_model:
            print("(load too low for the simulated horizon — no arrivals)\n")
            return
        by_type = " ".join(
            f"{t.chip_type}:{t.n_requests}" for t in report.per_chip_type
        )
        rows.append(
            (
                routing,
                f"{report.per_model[0].p99_ms:.3f}",
                f"{report.goodput_rps:.0f}",
                f"{report.energy_per_request_uj:.2f}",
                f"{100 * report.mean_chip_utilization:.0f}%",
                by_type,
            )
        )
    print(format_table(
        ("routing", "p99 ms", "goodput req/s", "uJ/req", "mean util",
         "reqs by type"),
        rows,
    ))
    print(
        "Cost-aware routing keeps latency-critical traffic on the YOCO\n"
        "chips and spills to ISAAC only under pressure; round-robin shows\n"
        "what blind load balancing costs on a heterogeneous fleet.\n"
    )


def power_envelope_scenario(model, chips, rps):
    """The same mixed fleet squeezed through a tightening power envelope.

    Caps are per chip (a group pools its chips' budgets); the sweep walks
    from uncapped down to just above ISAAC's idle/leakage floor, where
    the throttle has to stretch nearly every ISAAC batch.
    """
    yoco_chips = max(1, chips // 2)
    isaac_chips = max(1, chips - yoco_chips)
    fleet = f"yoco:{yoco_chips},isaac:{isaac_chips}"
    print(section(f"Power envelope — {fleet}, {rps:.0f} req/s, cap sweep"))
    rows = []
    throttled = False
    for cap in (None, 4.0, 3.2, 3.0):
        report, result = simulate_serving(config=ServingConfig(
            workload=WorkloadConfig(models=(model,), rps=rps),
            fleet=FleetConfig(
                fleet=fleet,
                power=None if cap is None else PowerConfig(power_cap_w=cap),
            ),
        ))
        if not report.per_model:
            print("(load too low for the simulated horizon — no arrivals)\n")
            return
        groups = result.power.groups if result.power else ()
        throttled = throttled or any(g.stall_ns > 0 for g in groups)
        rows.append(
            (
                "-" if cap is None else f"{cap:g}",
                f"{report.goodput_rps:.0f}",
                f"{report.per_model[0].p99_ms:.3f}",
                f"{report.energy_per_request_uj:.2f}",
                " ".join(f"{g.name}:{g.avg_w:.2f}" for g in groups) or "-",
                " ".join(
                    f"{g.name}:{g.stall_ns * 1e-6:.1f}" for g in groups
                )
                or "-",
            )
        )
    print(format_table(
        ("cap W/chip", "goodput req/s", "p99 ms", "uJ/req", "avg W by group",
         "stall ms by group"),
        rows,
    ))
    if throttled:
        print(
            "ISAAC's leakage floor nearly fills a tight per-chip budget,\n"
            "so the governor stretches its batches (DVFS) while YOCO — an\n"
            "order of magnitude more efficient — serves the same envelope\n"
            "without throttling: sub-PetaOps/W as a deployment property,\n"
            "not a datasheet line.\n"
        )
    else:
        print(
            "At this load no group's draw reaches the swept caps — raise\n"
            "the offered traffic (or tighten the caps) to watch the\n"
            "throttle engage.\n"
        )


def prefill_decode_scenario(model, chips):
    """Unified vs disaggregated LLM serving at equal chip count
    (`repro.serve.decode`).

    Every request autoregressively decodes a lognormal number of tokens
    after its prefill, under iteration-level continuous batching with
    KV-cache residency accounting.  The sweep holds traffic and fleet
    fixed and changes only the placement: unified (every chip serves
    both phases) vs prefill-decode disaggregation (prefill pinned to the
    YOCO group, decode to the ISAAC group), comparing the tail metrics
    only a decode-aware engine can report — time-to-first-token and
    inter-token latency.
    """
    workload = get_workload(model)
    llm = model if workload.seq_len > 0 else "mobilebert"
    half = max(1, chips // 2)
    fleet = f"yoco:{half},isaac:{half}"
    decode = DecodeConfig(dist="lognormal", mean_tokens=32)
    base, _ = simulate_serving(config=_anchor_config(llm, chips))
    if not base.per_model:
        print("(load too low for the simulated horizon — no arrivals)\n")
        return
    # Each request costs ~mean_tokens decode iterations on top of its
    # prefill, so scale the offered load down accordingly.
    service_ms = base.per_model[0].p50_ms
    rps = 0.2 * chips / (service_ms * 1e-3) / decode.mean_tokens
    print(section(
        f"Prefill/decode — {llm} @ {rps:.0f} req/s on {fleet}, "
        f"~{decode.mean_tokens} generated tokens per request"
    ))
    rows = []
    for label, placement in (
        ("unified", "replicated"),
        ("disaggregated", "prefill-decode"),
    ):
        report, _ = simulate_serving(config=ServingConfig(
            workload=WorkloadConfig(models=(llm,), rps=rps),
            fleet=FleetConfig(fleet=fleet, placement=placement),
            decode=decode,
        ))
        if not report.per_model:
            print("(load too low for the simulated horizon — no arrivals)\n")
            return
        m = report.per_model[0]
        rows.append(
            (
                label,
                f"{m.ttft_p50_ms:.3f}",
                f"{m.ttft_p99_ms:.3f}",
                f"{m.itl_p99_ms:.4f}",
                f"{report.decode_tokens_per_s:.0f}",
                f"{100 * m.kv_overflow:.1f}%",
                f"{100 * report.mean_chip_utilization:.0f}%",
            )
        )
    print(format_table(
        ("serving", "ttft p50 ms", "ttft p99 ms", "itl p99 ms", "tok/s",
         "kv spill", "mean util"),
        rows,
    ))
    print(
        "Disaggregation isolates time-to-first-token: prefills never\n"
        "queue behind decode iterations, so the TTFT tail tracks the\n"
        "prefill group's service time alone no matter how deep the\n"
        "decode backlog grows, while inter-token latency rides the\n"
        "decode group's own per-iteration rate.  Unified serving mixes\n"
        "the phases on every chip — under light load its ITL wins (every\n"
        "chip takes decode work), but under pressure each long prefill\n"
        "stalls the decodes behind it and the TTFT tail inflates.\n"
    )


def closed_loop_scenario(model, chips, think_ms=1.0):
    """How many concurrent users does the cluster hold at its SLO?

    A closed-loop population (sessions block on completion, think
    ``think_ms``, issue the next request) is walked across the analytic
    saturation knee; past it, every added session only deepens queues, so
    the final rows re-run the over-knee population behind a queue-depth
    cap — bounding the backlog each accepted request can hide behind —
    with and without retry-with-backoff.
    """
    cluster = Cluster([get_workload(model)], fleet=f"yoco:{chips}")
    knee = estimated_saturation_clients(cluster, think_time_ms=think_ms)
    print(section(
        f"Closed loop — {model} on {chips} YOCO chips, think {think_ms:g} ms "
        f"(analytic knee ~{knee:.0f} clients)"
    ))
    rows = []
    populations = sorted(
        {max(1, round(knee * f)) for f in (0.25, 0.5, 1.0, 2.0, 4.0)}
    )
    sweeps = [(n, None, None) for n in populations]
    over_knee = populations[-1]
    cap = f"queue-cap:{12 * chips}"
    sweeps += [(over_knee, cap, None), (over_knee, cap, 3)]
    for n_clients, admission, retries in sweeps:
        report, result = simulate_serving(config=ServingConfig(
            workload=WorkloadConfig(
                models=(model,), clients=n_clients, think_time_ms=think_ms,
                retry=retries,
            ),
            fleet=FleetConfig(fleet=f"yoco:{chips}"),
            policy=PolicyConfig(admission=admission),
        ))
        if not report.per_model:
            print("(horizon too short for this think time — no requests)\n")
            return
        label = admission or "-"
        if retries:
            label += f" +{retries} retries"
        rows.append(
            (
                n_clients,
                label,
                f"{report.throughput_rps:.0f}",
                f"{report.goodput_rps:.0f}",
                f"{report.per_model[0].p99_ms:.3f}",
                f"{100 * report.rejection_rate:.1f}%",
                f"{100 * report.mean_chip_utilization:.0f}%",
            )
        )
    print(format_table(
        ("clients", "admission", "req/s", "goodput req/s", "p99 ms", "shed",
         "mean util"),
        rows,
    ))
    print(
        "Throughput climbs with the population until the chips saturate\n"
        "near the analytic knee; past it goodput collapses into queueing.\n"
        "Capping the queue depth sheds the excess at the door — the p99 of\n"
        "what *is* accepted falls back toward the knee-level latency — and\n"
        "retry-with-backoff turns most hard drops into served requests,\n"
        "paying for each recovery in (client-perceived) tail latency.\n"
    )


def multi_tenant_scenario(model, chips, peak_rps):
    """A protected interactive tenant sharing the cluster with a greedy
    batch tenant (`repro.serve.tenancy`).

    ``chat`` offers a modest interactive load; ``bulk`` offers ~1.5x the
    whole cluster's capacity.  The sweep holds the traffic fixed and
    changes only the scheduling contract: fifo (bulk's backlog buries
    chat), weighted-fair with a declared-rate token bucket on bulk (the
    noisy neighbor is shed and share-limited), and strict-priority with
    preemption (chat's tight deadline can evict in-flight bulk batches,
    wasted service accounted).
    """
    chat_rps = 0.05 * peak_rps
    bulk_rps = 1.5 * peak_rps
    print(section(
        f"Multi-tenant — chat @ {chat_rps:.0f} req/s (interactive) vs "
        f"bulk @ {bulk_rps:.0f} req/s (batch), {chips} YOCO chips"
    ))
    tight_ms = None
    rows = []
    for label, scheduler, preempt, rate_limited in (
        ("fifo", "fifo", False, False),
        ("weighted-fair + bucket", "weighted-fair", False, True),
        ("strict-priority +preempt", "strict-priority", True, False),
    ):
        if preempt and tight_ms is None:
            # A deadline waiting can miss but an overhead-charged
            # preemption can meet: ~2x the batch-1 service time.
            base, _ = simulate_serving(config=_anchor_config(model, chips))
            tight_ms = 2.0 * base.per_model[0].p50_ms
        tenants = (
            Tenant(
                "chat", "interactive", weight=4.0, rps=chat_rps,
                deadline_ms=tight_ms if preempt else None,
            ),
            Tenant(
                "bulk", "batch", weight=1.0, rps=bulk_rps,
                rate_limit_rps=0.5 * peak_rps if rate_limited else None,
            ),
        )
        report, result = simulate_serving(config=ServingConfig(
            workload=WorkloadConfig(models=(model,), tenants=tenants),
            fleet=FleetConfig(fleet=f"yoco:{chips}"),
            policy=PolicyConfig(scheduler=scheduler, preemption=preempt),
        ))
        by = {t.tenant: t for t in report.per_tenant}
        if "chat" not in by or by["chat"].n_requests == 0:
            print("(load too low for the simulated horizon — no arrivals)\n")
            return
        rows.append(
            (
                label,
                f"{by['chat'].p99_ms:.3f}",
                f"{by['bulk'].p99_ms:.3f}",
                f"{100 * by['bulk'].rejection_rate:.0f}%",
                result.n_preemptions,
                f"{100 * report.mean_chip_utilization:.0f}%",
            )
        )
    print(format_table(
        ("contract", "chat p99 ms", "bulk p99 ms", "bulk shed", "preempts",
         "mean util"),
        rows,
    ))
    print(
        "Under fifo the interactive tenant queues behind the greedy\n"
        "tenant's backlog.  Weighted-fair plus a declared-rate bucket\n"
        "sheds the excess at the door (utilization falls with it) and\n"
        "caps bulk's share of what remains — chat's p99 collapses by\n"
        "orders of magnitude.  Strict-priority with preemption instead\n"
        "keeps every chip busy and accepts everything: in-flight bulk\n"
        "batches are evicted (their wasted service time charged\n"
        "explicitly) whenever waiting would miss chat's deadline, buying\n"
        "nearly the same interactive tail without shedding a request.\n"
    )


def observability_scenario(model, chips, peak_rps):
    """The noisy-neighbor study re-run with lifecycle tracing on
    (`repro.serve.observe`).

    The tenancy report says *what* each tenant's latency was; the trace
    says *where* it was spent.  This scenario replays the
    strict-priority + preemption contract from the multi-tenant sweep
    with ``trace_file=`` set, reconstructs the attacker/victim per-phase
    split (queueing vs service, preempted work burned) from the trace
    alone via :func:`summarize_trace`, and cross-checks the lane tails
    against the tenancy report — the trace is a pass-through record,
    so the numbers must agree to float equality.
    """
    chat_rps = 0.05 * peak_rps
    bulk_rps = 1.5 * peak_rps
    base, _ = simulate_serving(config=_anchor_config(model, chips))
    tight_ms = 2.0 * base.per_model[0].p50_ms
    tenants = (
        Tenant(
            "chat", "interactive", weight=4.0, rps=chat_rps,
            deadline_ms=tight_ms,
        ),
        Tenant("bulk", "batch", weight=1.0, rps=bulk_rps),
    )
    print(section(
        f"Observability — the noisy-neighbor run traced "
        f"(strict-priority + preemption, {chips} YOCO chips)"
    ))
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = str(pathlib.Path(tmp) / "noisy_neighbor.jsonl")
        report, result = simulate_serving(config=ServingConfig(
            workload=WorkloadConfig(models=(model,), tenants=tenants),
            fleet=FleetConfig(fleet=f"yoco:{chips}"),
            policy=PolicyConfig(scheduler="strict-priority", preemption=True),
            observe=ObserveConfig(trace_file=trace_path),
        ))
        summary = summarize_trace(trace_path)
    by = {t.tenant: t for t in report.per_tenant}
    if "chat" not in by or by["chat"].n_requests == 0:
        print("(load too low for the simulated horizon — no arrivals)\n")
        return
    lanes = {lane.tenant: lane for lane in summary.lanes}
    rows = []
    for name in ("chat", "bulk"):
        lane = lanes[name]
        rows.append(
            (
                name,
                lane.n,
                f"{lane.queue_p99_ms:.3f}",
                f"{lane.service_p99_ms:.3f}",
                f"{lane.p99_ms:.3f}",
                f"{lane.wasted_ms:.3f}",
                lane.n_preempted,
            )
        )
    print(format_table(
        ("tenant", "served", "queue p99 ms", "service p99 ms",
         "total p99 ms", "wasted ms", "preempted"),
        rows,
    ))
    checks = []
    for name in ("chat", "bulk"):
        lane, rep = lanes[name], by[name]
        ok = lane.p50_ms == rep.p50_ms and lane.p99_ms == rep.p99_ms
        checks.append(
            f"  {name}: trace p50/p99 = {lane.p50_ms:.3f}/{lane.p99_ms:.3f} ms, "
            f"report = {rep.p50_ms:.3f}/{rep.p99_ms:.3f} ms -> "
            f"{'match' if ok else 'MISMATCH'}"
        )
        if not ok:
            raise SystemExit(
                f"trace-summary disagrees with the tenancy report for {name}"
            )
    preempts_ok = (
        sum(lane.n_preempted for lane in summary.lanes) == result.n_preemptions
    )
    checks.append(
        f"  preemptions: trace = "
        f"{sum(lane.n_preempted for lane in summary.lanes)}, "
        f"engine = {result.n_preemptions} -> "
        f"{'match' if preempts_ok else 'MISMATCH'}"
    )
    print(
        f"trace: {summary.n_events} events over "
        f"{summary.makespan_ns * 1e-6:.2f} ms simulated\n"
        "cross-check against the tenancy report (float equality):"
    )
    print("\n".join(checks))
    print(
        "\nThe report alone shows chat's p99 holding near its deadline;\n"
        "the trace shows *why*: nearly all of bulk's tail is queueing\n"
        "(service time is flat), and the wasted-ms column charges the\n"
        "service each preempted bulk batch burned before eviction to the\n"
        "lane that lost it.  The same file drives `repro trace-summary`\n"
        "and, written as .json, opens in Perfetto.\n"
    )


def follow_the_sun_scenario(model, chips, peak_rps):
    """Three regions, staggered diurnal peaks, elastic fleets
    (`repro.serve.regions` + `repro.serve.elastic`).

    Each region offers ~0.8x its own cluster ceiling at the top of its
    daily sine wave, with the peaks spread a third of a day apart.  The
    sweep holds the traffic fixed and changes only the fleet contract:
    static peak provisioning (every chip held for the whole horizon),
    per-region autoscaling (chips drain through each region's night,
    paying a provisioning delay at dawn), and autoscaling with a wider
    spill window (more over-capacity traffic re-homed to whichever
    region is idlest, at an RTT on the perceived latency).
    """
    rps = 0.8 * peak_rps
    elastic = ElasticConfig(min_chips=1, max_chips=chips,
                            provision_delay_ms=2.0)
    print(section(
        f"Follow the sun — 3 regions x {chips} chips, {model} @ "
        f"{rps:.0f} req/s per region at peak"
    ))
    rows = []
    for label, cfg, threshold in (
        ("static peak", None, 0.9),
        ("elastic 1..%d" % chips, elastic, 0.9),
        ("elastic + eager spill", elastic, 0.7),
    ):
        rep = simulate_regions(
            [model], n_regions=3, rps=rps, n_chips=chips,
            duration_s=0.1, seed=0, rtt_ms=1.0, elastic=cfg,
            spill_threshold=threshold,
        )
        if rep.n_requests == 0:
            print("(load too low for the simulated horizon — no arrivals)\n")
            return
        rows.append(
            (
                label,
                f"{rep.p50_ms:.3f}",
                f"{rep.p99_ms:.3f}",
                f"{100 * rep.spill_fraction:.1f}%",
                f"{rep.chip_seconds * 1e3:.1f}",
            )
        )
    print(format_table(
        ("fleet contract", "p50 ms", "p99 ms", "spilled", "chip-ms"),
        rows,
    ))
    print(
        "Staggered peaks are what autoscaling monetizes: every region\n"
        "idles through its night, so draining to one chip and re-growing\n"
        "at dawn cuts the fleet's chip-time bill far below static peak\n"
        "provisioning, at a bounded tail-latency price (the provisioning\n"
        "delay shows up at each morning's ramp).  Spilling earlier\n"
        "shifts load onto whichever region is idlest instead — cheaper\n"
        "still on chip-time, but every spilled request pays the\n"
        "inter-region RTT on its perceived latency.\n"
    )


if __name__ == "__main__":
    main()
