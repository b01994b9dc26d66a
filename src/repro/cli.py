"""Command-line interface: regenerate any paper artifact from a shell.

    python -m repro table2
    python -m repro fig8
    python -m repro fig6f --quick
    python -m repro all --quick

Each subcommand prints the same rows/series the corresponding table or
figure in the paper shows (the benchmark suite wraps the same drivers with
assertions and timing).

Beyond the paper's artifacts, ``serve`` runs the request-level serving
simulator (:mod:`repro.serve`) — synthetic traffic through a dynamically
batched multi-chip cluster:

    python -m repro serve --model resnet18 --chips 4 --rps 2000 --seed 0
    python -m repro serve --model llama3_7b --chips 8 --rps 50 --trace bursty
    python -m repro serve --model gpt_large --chips 2 --rps 40 \
        --seqlen-dist lognormal --seqlen-buckets 256,512,1024,2048

``--chips N [--mode M]`` serves on N YOCO chips and is shorthand for
``--fleet yoco:N[:M]``.  ``--fleet`` names any fleet of chip types
(YOCO plus the Fig. 8 baselines), with cost-aware placement and routing
knobs:

    python -m repro serve --fleet yoco:8,isaac:4 --model resnet18 --rps 2000
    python -m repro serve --fleet yoco:2,isaac:2:pipelined \
        --model resnet18 --model gpt_large --placement cost-energy \
        --routing cheapest-energy

``--power-cap`` / ``--thermal-tau`` / ``--t-max`` run the whole
simulation under a power/thermal envelope (:mod:`repro.serve.power`):
batches on a group over its cap or thermal limit are DVFS-stretched, and
the report gains per-group watts, over-cap/stall shares and peak
temperature:

    python -m repro serve --model resnet18 --chips 4 --rps 20000 \
        --power-cap 0.5
    python -m repro serve --fleet yoco:2,isaac:2 --rps 20000 \
        --power-cap 3.0 --t-max 60 --thermal-tau 0.005

``--clients`` switches from the open-loop trace to a closed-loop client
population (N sessions that block on completion and think between
requests), and ``--admission`` puts an admission-control policy in front
of the queues in either mode:

    python -m repro serve --model resnet18 --chips 4 --clients 64 \
        --think-time 2 --retries 3 --admission queue-cap:32
    python -m repro serve --model resnet18 --chips 2 --rps 100000 \
        --admission slo-aware

``--tenants`` makes the run multi-tenant (:mod:`repro.serve.tenancy`):
named tenants with their own traffic mixes, SLO classes and weights
share the fleet under a ``--scheduler`` (fifo / strict-priority /
weighted-fair), optionally with ``--preempt`` deadline-driven eviction
of lower-priority batches:

    python -m repro serve --model resnet18 --chips 4 \
        --tenants "chat:interactive:w=4:poisson@200,bulk:batch:poisson@4000" \
        --scheduler weighted-fair
    python -m repro serve --model resnet18 --chips 2 --preempt \
        --tenants "chat:interactive:poisson@500,scrape:best-effort:bursty@8000:rate=2000"

``--trace-out`` / ``--metrics-out`` / ``--profile-engine`` observe a run
(:mod:`repro.serve.observe`) without changing it: lifecycle traces as
JSONL or Perfetto-loadable Chrome JSON, windowed time-series CSV, and
the engine's own event-loop profile.  ``trace-summary`` reconstructs
per-phase latency (queue vs service vs preemption-wasted) from a trace:

    python -m repro serve --model resnet18 --rps 2000 --trace-out run.jsonl
    python -m repro trace-summary run.jsonl
    python -m repro serve --model resnet18 --rps 2000 \
        --trace-out run.json --metrics-out run.csv:0.5 --profile-engine
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.arch.accelerator import yoco_spec
# The package resolves each driver on first use, so a command imports
# only its own figure driver and ``serve`` imports none.
from repro import experiments
from repro.experiments.report import section
from repro.serve import (
    ADMISSION_POLICIES,
    DECODE_DISTS,
    MODES,
    PLACEMENTS,
    ROUTING_POLICIES,
    SCHEDULERS,
    SEQLEN_DISTS,
    THINK_DISTS,
    TRACE_KINDS,
    DecodeConfig,
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    PowerConfig,
    ServingConfig,
    StreamingMetrics,
    WorkloadConfig,
    format_engine_profile,
    format_regions,
    format_serving,
    format_trace_summary,
    homogeneous_fleet,
    parse_admission,
    parse_autoscale,
    parse_fleet,
    parse_tenants,
    simulate_regions,
    simulate_serving,
    summarize_trace,
)
from repro.serve.config import check_composition

#: ``--chips`` / ``--mode`` name a homogeneous YOCO fleet, so they cannot
#: also qualify an explicit ``--fleet``.
MSG_FLEET_WITH_CHIPS = (
    "--chips and --mode name a homogeneous YOCO fleet; with --fleet, give "
    "each group its own count and mode, e.g. --fleet yoco:4,isaac:4:pipelined"
)


def _parse_buckets(text: Optional[str]) -> Optional[List[int]]:
    """'256,512,1024' -> [256, 512, 1024]."""
    if text is None:
        return None
    try:
        buckets = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(
            f"--seqlen-buckets must be comma-separated integers, got {text!r}"
        ) from None
    if not buckets:
        raise SystemExit("--seqlen-buckets must name at least one boundary")
    if any(b < 1 for b in buckets) or any(
        a >= b for a, b in zip(buckets, buckets[1:])
    ):
        raise SystemExit(
            f"--seqlen-buckets must be strictly ascending positive "
            f"boundaries, got {text!r}"
        )
    return buckets


def _parse_metrics_out(text: Optional[str]):
    """'--metrics-out FILE[:WINDOW_MS]' -> (path, window_ms)."""
    if text is None:
        return None, 1.0
    path, window_ms = text, 1.0
    if ":" in text:
        head, tail = text.rsplit(":", 1)
        try:
            window_ms = float(tail)
        except ValueError:
            pass  # a path with a colon in it, not a window suffix
        else:
            path = head
    if not window_ms > 0:
        raise SystemExit(
            f"--metrics-out window must be a positive number of "
            f"milliseconds, got {text!r}"
        )
    if not path:
        raise SystemExit(f"--metrics-out needs a file path, got {text!r}")
    return path, window_ms


def serve_config_from_args(args: argparse.Namespace) -> ServingConfig:
    """Pure ``args -> ServingConfig`` translation (no simulation started).

    Only flag-level problems raise ``SystemExit`` here: grammar parse
    failures and checks on a single flag's value.  Every composition rule
    is left to :meth:`ServingConfig.validate`, which
    ``simulate_serving(config)`` applies and ``_serve`` reports as
    ``serve: <message>``.  Having no side effects, the translation is
    unit-testable on a bare ``argparse.Namespace``.
    """
    models = tuple(args.model) if args.model else ("resnet18",)
    if args.fleet is not None:
        if args.chips is not None or args.mode != "batched":
            raise SystemExit(MSG_FLEET_WITH_CHIPS)
        try:
            fleet = parse_fleet(args.fleet)
        except ValueError as error:
            raise SystemExit(f"--fleet: {error}") from None
    else:
        # --chips N [--mode M] is the CLI's spelling of N YOCO chips.
        n_chips = 4 if args.chips is None else args.chips
        try:
            fleet = homogeneous_fleet(yoco_spec(), n_chips, args.mode)
        except ValueError as error:
            raise SystemExit(f"--chips: {error}") from None
    admission = None
    if args.admission is not None:
        try:
            admission = parse_admission(args.admission)
        except ValueError as error:
            raise SystemExit(f"--admission: {error}") from None
    tenants = None
    if args.tenants is not None:
        try:
            tenants = parse_tenants(args.tenants)
        except (ValueError, KeyError) as error:
            raise SystemExit(f"--tenants: {error}") from None
    if args.think_time < 0:
        raise SystemExit("--think-time must be non-negative")
    if args.retries is not None and args.retries < 0:
        raise SystemExit("--retries must be >= 0 (0 disables retries)")
    # 0 disables retries in a closed loop; an open-loop --retries still
    # reaches the rule table's retries-need-clients row.
    retries = args.retries if args.retries or args.clients is None else None
    # --thermal-tau alone constrains nothing; forwarding it anyway would
    # spin up a governor whose trace the CLI never shows.
    power = None
    if args.power_cap is not None or args.t_max is not None:
        tau = (
            {} if args.thermal_tau is None
            else {"thermal_tau_s": args.thermal_tau}
        )
        try:
            power = PowerConfig(
                power_cap_w=args.power_cap, t_max_c=args.t_max, **tau
            )
        except ValueError as error:
            raise SystemExit(f"serve: {error}") from None
    elastic = None
    if args.autoscale is not None:
        try:
            elastic = parse_autoscale(args.autoscale)
        except ValueError as error:
            raise SystemExit(f"--autoscale: {error}") from None
    decode = None
    if args.decode_dist is not None:
        try:
            decode = DecodeConfig(
                dist=args.decode_dist,
                mean_tokens=args.decode_mean,
                max_tokens=args.decode_max,
            )
        except ValueError as error:
            raise SystemExit(f"--decode-dist: {error}") from None
    metrics_file, metrics_window_ms = _parse_metrics_out(args.metrics_out)
    stream = None
    if args.progress is not None:
        if args.progress < 1:
            raise SystemExit("--progress must be >= 1")
        stream = StreamingMetrics(progress_every=args.progress)
    return ServingConfig(
        workload=WorkloadConfig(
            models=models,
            rps=args.rps,
            duration_s=args.duration,
            trace_kind=args.trace,
            seed=args.seed,
            seqlen_dist=args.seqlen_dist,
            seqlen_mean=args.seqlen_mean,
            clients=args.clients,
            think_time_ms=args.think_time,
            think_dist=args.think_dist,
            retry=retries,
            tenants=tenants,
        ),
        fleet=FleetConfig(
            fleet=fleet,
            placement=args.placement,
            routing=args.routing,
            power=power,
            elastic=elastic,
        ),
        policy=PolicyConfig(
            max_batch_size=args.max_batch,
            window_ms=args.window_ms,
            slo_ms=args.slo_ms,
            seqlen_buckets=_parse_buckets(args.seqlen_buckets),
            admission=admission,
            scheduler=args.scheduler,
            preemption=args.preempt,
        ),
        observe=ObserveConfig(
            stream_metrics=stream,
            trace_file=args.trace_out,
            metrics_file=metrics_file,
            metrics_window_ms=metrics_window_ms,
            profile_engine=args.profile_engine,
        ),
        decode=decode,
    )


def _serve_regions(args: argparse.Namespace) -> str:
    if args.regions < 1:
        raise SystemExit("--regions must be >= 1")
    # Regions build their own fleets and diurnal traces, so any of these
    # left off its parser default would be silently ignored.
    parser = build_parser()
    for flag in (
        "--fleet", "--tenants", "--clients", "--retries", "--admission",
        "--seqlen-dist", "--power-cap/--t-max", "--decode-dist",
        "--progress", "--trace-out", "--metrics-out", "--profile-engine",
        "--routing", "--mode", "--trace", "--placement", "--seqlen-buckets",
    ):
        dests = [name[2:].replace("-", "_") for name in flag.split("/")]
        if any(getattr(args, d) != parser.get_default(d) for d in dests):
            raise SystemExit(
                f"--regions runs are homogeneous open-loop diurnal "
                f"studies; they cannot combine with {flag}"
            )
    try:
        # --tenants was refused above, so this rule has every fact.
        check_composition(
            tenants=None, scheduler=args.scheduler, preemption=args.preempt
        )
    except ValueError as error:
        raise SystemExit(f"serve: {error}") from None
    models = args.model if args.model else ["resnet18"]
    n_chips = args.chips if args.chips is not None else 4
    elastic = None
    if args.autoscale is not None:
        try:
            elastic = parse_autoscale(args.autoscale)
        except ValueError as error:
            raise SystemExit(f"--autoscale: {error}") from None
    regions_report = simulate_regions(
        models,
        n_regions=args.regions,
        rps=args.rps,
        n_chips=n_chips,
        duration_s=args.duration,
        seed=args.seed,
        rtt_ms=args.rtt_ms,
        elastic=elastic,
        max_batch_size=args.max_batch,
        window_ms=args.window_ms,
        slo_ms=args.slo_ms,
    )
    header = (
        f"traffic           : {','.join(models)} @ {args.rps:g} req/s "
        f"per region (follow-the-sun diurnal, {args.duration:g} s "
        f"horizon, seed {args.seed})"
    )
    if elastic is not None:
        header += (
            f"\nautoscaling       : {args.autoscale} per region"
        )
    return header + "\n" + format_regions(regions_report)


def _serve(args: argparse.Namespace) -> str:
    if args.regions is not None:
        return _serve_regions(args)
    cfg = serve_config_from_args(args)
    try:
        report, result = simulate_serving(config=cfg)
    except ValueError as error:
        raise SystemExit(f"serve: {error}") from None
    models = list(cfg.workload.models)
    tenants = cfg.workload.tenants
    metrics_file = cfg.observe.metrics_file
    metrics_window_ms = cfg.observe.metrics_window_ms
    if args.clients is not None:
        header = (
            f"traffic           : {','.join(models)} closed-loop, "
            f"{args.clients} clients ({args.duration:g} s horizon, "
            f"seed {args.seed})"
        )
    elif tenants is not None:
        mix = ", ".join(
            f"{t.name} ({t.slo_class}, {t.trace_kind}@{t.rps:g})"
            for t in tenants
        )
        header = (
            f"traffic           : {mix} "
            f"({args.duration:g} s horizon, seed {args.seed})"
        )
        header += (
            f"\ntenancy           : {args.scheduler} scheduler, preemption "
            f"{'on' if args.preempt else 'off'}"
        )
    else:
        header = (
            f"traffic           : {','.join(models)} @ {args.rps:g} req/s "
            f"({args.trace}, {args.duration:g} s horizon, seed {args.seed})"
        )
    if args.seqlen_dist:
        mean = args.seqlen_mean if args.seqlen_mean else "native"
        header += (
            f"\nsequence lengths  : {args.seqlen_dist} (mean {mean})"
        )
    if args.decode_dist:
        cap = f", cap {args.decode_max}" if args.decode_max else ""
        header += (
            f"\ndecode            : {args.decode_dist} "
            f"(mean {args.decode_mean} tokens{cap}, "
            f"{args.placement if args.placement == 'prefill-decode' else 'unified'} serving)"
        )
    if args.power_cap is not None or args.t_max is not None:
        cap = "-" if args.power_cap is None else f"{args.power_cap:g} W/chip"
        t_max = "-" if args.t_max is None else f"{args.t_max:g} C"
        header += f"\npower envelope    : cap {cap}, t-max {t_max}"
    artifacts = []
    if args.trace_out is not None:
        artifacts.append(f"trace -> {args.trace_out}")
    if metrics_file is not None:
        artifacts.append(
            f"metrics -> {metrics_file} ({metrics_window_ms:g} ms windows)"
        )
    if artifacts:
        header += f"\nobservability     : {', '.join(artifacts)}"
    text = header + "\n" + format_serving(report)
    if args.profile_engine:
        text += "\n\nengine profile:\n" + format_engine_profile(result.stats)
    return text


def _trace_summary(args: argparse.Namespace) -> str:
    if args.file is None:
        raise SystemExit(
            "trace-summary needs a trace file: "
            "repro trace-summary FILE.jsonl "
            "(write one with repro serve ... --trace-out FILE.jsonl)"
        )
    try:
        summary = summarize_trace(args.file)
    except FileNotFoundError:
        raise SystemExit(f"trace-summary: no such file: {args.file}") from None
    except ValueError as error:
        raise SystemExit(f"trace-summary: {error}") from None
    if not summary.lanes:
        raise SystemExit(
            f"trace-summary: {args.file} holds no completed requests "
            f"({summary.n_events} events)"
        )
    return format_trace_summary(summary)


def _table1(args: argparse.Namespace) -> str:
    return experiments.format_table1()


def _table2(args: argparse.Namespace) -> str:
    return experiments.format_table2()


def _fig1c(args: argparse.Namespace) -> str:
    return experiments.format_fig1c()


def _fig6a(args: argparse.Namespace) -> str:
    return experiments.format_fig6(a=experiments.run_fig6a(seed=args.seed))


def _fig6bc(args: argparse.Namespace) -> str:
    step = 4 if args.quick else 1
    return experiments.format_fig6(
        bc=experiments.run_fig6bc(seed=args.seed, step=step)
    )


def _fig6d(args: argparse.Namespace) -> str:
    n = 400 if args.quick else 2000
    return experiments.format_fig6(
        d=experiments.run_fig6d(n_samples=n, seed=args.seed)
    )


def _fig6e(args: argparse.Namespace) -> str:
    return experiments.format_fig6(e=experiments.run_fig6e(seed=args.seed))


def _fig6f(args: argparse.Namespace) -> str:
    return experiments.format_fig6(
        f=experiments.run_fig6f(quick=args.quick, seed=args.seed)
    )


def _fig7(args: argparse.Namespace) -> str:
    return experiments.format_fig7()


def _fig8(args: argparse.Namespace) -> str:
    return experiments.format_fig8()


def _fig9(args: argparse.Namespace) -> str:
    return experiments.format_fig9()


def _fig10(args: argparse.Namespace) -> str:
    return experiments.format_fig10()


_COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": _table1,
    "table2": _table2,
    "fig1c": _fig1c,
    "fig6a": _fig6a,
    "fig6bc": _fig6bc,
    "fig6d": _fig6d,
    "fig6e": _fig6e,
    "fig6f": _fig6f,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "serve": _serve,
    "trace-summary": _trace_summary,
}

#: Commands that post-process a prior run's artifact rather than
#: regenerate one of the paper's — `repro all` skips them.
_NOT_IN_ALL = frozenset({"trace-summary"})

_TITLES: Dict[str, str] = {
    "table1": "Table I - ADCs/DACs cost comparison",
    "table2": "Table II - summary of YOCO parameters",
    "fig1c": "Fig. 1(c) - IMC throughput vs energy efficiency",
    "fig6a": "Fig. 6(a) - input conversion TC + INL/DNL",
    "fig6bc": "Fig. 6(b,c) - 8-bit MAC TCs and error",
    "fig6d": "Fig. 6(d) - Monte-Carlo voltage offset",
    "fig6e": "Fig. 6(e) - MAC error comparison",
    "fig6f": "Fig. 6(f) - DNN inference accuracy",
    "fig7": "Fig. 7 - IMA vs prior IMC circuits",
    "fig8": "Fig. 8 - architecture comparison (10 models)",
    "fig9": "Fig. 9 - DAC/ADC overhead comparison",
    "fig10": "Fig. 10 - attention pipeline speedup",
    "serve": "Serving simulation - request-level cluster model",
    "trace-summary": "Trace summary - per-phase latency from a lifecycle trace",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the YOCO paper's tables and figures.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(_COMMANDS) + ["all"],
        help="which table/figure to regenerate ('all' runs everything)",
    )
    parser.add_argument(
        "file",
        nargs="?",
        default=None,
        help="lifecycle trace to read (trace-summary only; the JSONL file "
        "a serve run wrote via --trace-out)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced fidelity for the slow artifacts (fig6bc/fig6d/fig6f)",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    serve = parser.add_argument_group("serve options")
    serve.add_argument(
        "--model",
        action="append",
        help="model(s) to serve; repeatable (default: resnet18)",
    )
    serve.add_argument(
        "--chips",
        type=int,
        default=None,
        help="serve on N YOCO chips, the fleet yoco:N (default: 4; not "
        "with --fleet)",
    )
    serve.add_argument(
        "--fleet",
        type=str,
        default=None,
        help="fleet spec, e.g. yoco:8,isaac:4 or yoco:4,isaac:4:pipelined "
        "(not with --chips or --mode: each group gives its own count "
        "and mode)",
    )
    serve.add_argument(
        "--routing",
        choices=ROUTING_POLICIES,
        default="fastest",
        help="which free hosting chip a batch dispatches to "
        "(only distinguishable on a mixed fleet)",
    )
    serve.add_argument(
        "--rps", type=float, default=2000.0, help="offered load, requests/second"
    )
    serve.add_argument(
        "--duration", type=float, default=0.1, help="simulated horizon, seconds"
    )
    serve.add_argument(
        "--trace",
        choices=TRACE_KINDS,
        default="poisson",
        help="arrival process shape",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8, help="dynamic batching cap"
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=0.2,
        help="batching window in milliseconds",
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="latency SLO in ms (default: 10x the batch-1 service latency)",
    )
    serve.add_argument(
        "--seqlen-dist",
        choices=SEQLEN_DISTS,
        default=None,
        help="per-request sequence-length distribution for LLM workloads "
        "(CNNs are unaffected; default: every request at the native length)",
    )
    serve.add_argument(
        "--seqlen-mean",
        type=int,
        default=None,
        help="mean of the sequence-length distribution "
        "(default: the model's native sequence length)",
    )
    serve.add_argument(
        "--seqlen-buckets",
        type=str,
        default=None,
        help="comma-separated padding boundaries for seqlen bucketing, e.g. "
        "256,512,1024 (default: power-of-two buckets covering the samples)",
    )
    serve.add_argument(
        "--decode-dist",
        choices=DECODE_DISTS,
        default=None,
        help="per-request output-length distribution: every transformer "
        "request autoregressively decodes that many tokens after its "
        "prefill, under iteration-level continuous batching with "
        "KV-cache residency accounting (CNNs are unaffected)",
    )
    serve.add_argument(
        "--decode-mean",
        type=int,
        default=32,
        help="mean generated tokens per request (default: 32; only "
        "meaningful with --decode-dist)",
    )
    serve.add_argument(
        "--decode-max",
        type=int,
        default=None,
        help="hard cap on generated tokens per request (default: none)",
    )
    serve.add_argument(
        "--power-cap",
        type=float,
        default=None,
        help="per-chip power cap in watts (a group pools its chips' "
        "budgets); batches on a group over its cap are DVFS-stretched",
    )
    serve.add_argument(
        "--thermal-tau",
        type=float,
        default=None,
        help="thermal RC time constant in seconds "
        "(default: 0.005; only meaningful with --power-cap/--t-max)",
    )
    serve.add_argument(
        "--t-max",
        type=float,
        default=None,
        help="thermal limit in deg C; a group above it throttles until "
        "it cools back below the hysteresis margin",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=None,
        help="closed-loop client sessions (replaces the open-loop trace: "
        "--rps/--trace are then ignored; sessions block on completion "
        "and think between requests)",
    )
    serve.add_argument(
        "--think-time",
        type=float,
        default=5.0,
        help="mean closed-loop think time in ms (default: 5)",
    )
    serve.add_argument(
        "--think-dist",
        choices=THINK_DISTS,
        default="exponential",
        help="think-time distribution of the closed-loop sessions",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=None,
        help="closed-loop retry budget on admission rejection "
        "(default and 0: rejected requests drop; needs --clients)",
    )
    serve.add_argument(
        "--admission",
        type=str,
        default=None,
        help="admission-control policy spec: one of "
        f"{', '.join(ADMISSION_POLICIES)}, with optional parameters, "
        "e.g. queue-cap:64, token-bucket:5000:16, slo-aware:2.5",
    )
    serve.add_argument(
        "--tenants",
        type=str,
        default=None,
        help="multi-tenant spec: comma-separated "
        "NAME:CLASS[:w=W][:KIND@RPS][:model=M1+M2][:seqlen=DIST[@MEAN]]"
        "[:rate=RPS[@BURST]][:deadline=MS], e.g. "
        "chat:interactive:w=4:poisson@200,bulk:batch:poisson@4000 "
        "(classes: interactive, batch, best-effort; replaces "
        "--rps/--trace/--seqlen-*, which each tenant declares itself)",
    )
    serve.add_argument(
        "--scheduler",
        choices=SCHEDULERS,
        default="fifo",
        help="dispatch order across tenant queues (needs --tenants; "
        "weighted-fair shares chip time by tenant weight)",
    )
    serve.add_argument(
        "--preempt",
        action="store_true",
        help="let interactive arrivals preempt running lower-priority "
        "batches when waiting would miss their deadline (needs --tenants; "
        "incompatible with a power envelope)",
    )
    serve.add_argument(
        "--autoscale",
        type=str,
        default=None,
        metavar="SPEC",
        help="elastic fleet band: MAX, MIN:MAX or MIN:MAX:INITIAL chips "
        "(e.g. 2:8); a controller adds/drains chips mid-run against the "
        "observed load, with a provisioning delay; incompatible with "
        "--preempt",
    )
    serve.add_argument(
        "--regions",
        type=int,
        default=None,
        metavar="N",
        help="multi-region follow-the-sun study: N regions of --chips "
        "chips, each offered --rps over a phase-shifted diurnal trace, "
        "with over-capacity windows spilling to the most idle region at "
        "--rtt-ms cost; --autoscale then applies inside every region",
    )
    serve.add_argument(
        "--rtt-ms",
        type=float,
        default=1.0,
        help="inter-region round-trip time in ms for spilled requests "
        "(default: 1; only meaningful with --regions)",
    )
    serve.add_argument(
        "--progress",
        type=int,
        nargs="?",
        const=100_000,
        default=None,
        metavar="N",
        help="print a rolling p99 of everything served so far to stderr "
        "every N served (default 100000); the report is unchanged",
    )
    serve.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="FILE",
        help="stream every request-lifecycle event to FILE: JSON Lines "
        "(read back with repro trace-summary), or Chrome trace_event "
        "format when FILE ends in .json (open in Perfetto / "
        "chrome://tracing); the simulation itself is unchanged",
    )
    serve.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="FILE[:WINDOW_MS]",
        help="sample windowed time-series metrics (throughput, queue "
        "depth, utilization, power, p50/p99) every WINDOW_MS simulated "
        "ms (default 1) and write them to FILE as CSV, or JSON for "
        ".json paths",
    )
    serve.add_argument(
        "--profile-engine",
        action="store_true",
        help="count the engine's own event-loop work (events by kind, "
        "dispatch-scan lengths, heap high-water) and append the profile "
        "to the report",
    )
    serve.add_argument(
        "--mode",
        choices=MODES,
        default="batched",
        help="execution of the --chips fleet: wave-amortized batches or "
        "layer pipelining (--chips N --mode M is --fleet yoco:N:M)",
    )
    serve.add_argument(
        "--placement",
        choices=PLACEMENTS,
        default="replicated",
        help="model-to-chip placement strategy (prefill-decode pins "
        "prefill to fleet group 0 and decode to the remaining groups; "
        "needs --fleet and --decode-dist)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.artifact == "all":
        names = [n for n in sorted(_COMMANDS) if n not in _NOT_IN_ALL]
    else:
        names = [args.artifact]
    for name in names:
        print(section(_TITLES[name]))
        print(_COMMANDS[name](args))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
