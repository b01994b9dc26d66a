"""Request-level serving simulator: traffic -> cluster -> tail latency.

Turns the per-inference cost models of :mod:`repro.arch` into
cluster-scale serving numbers: offered traffic (synthetic arrival traces)
flows through per-model queues and a dynamic batcher onto N accelerator
chips, and comes out as p50/p95/p99 latency, SLO attainment, goodput,
chip utilization and energy per request.

    from repro.serve import (
        FleetConfig, ServingConfig, WorkloadConfig, format_serving,
        simulate_serving,
    )
    config = ServingConfig(
        workload=WorkloadConfig(models=("resnet18",), rps=2000, seed=0),
        fleet=FleetConfig(fleet="yoco:4"),
    )
    report, _ = simulate_serving(config)
    print(format_serving(report))

:class:`ServingConfig` groups the knobs into workload, fleet, policy,
observe and decode sub-configs; each sub-config's docstring describes its
knobs.  The grouping also reaches the subsystems:

* LLM traffic is sequence-length aware
  (``WorkloadConfig(seqlen_dist="lognormal")``): the batcher buckets
  same-length requests, and the report adds tokens/s, energy per token
  and the padding overhead;
* a power/thermal envelope (``FleetConfig(power=PowerConfig(...))``,
  :mod:`repro.serve.power`) throttles dispatched batches DVFS-style;
* closed-loop sessions (``WorkloadConfig(clients=64)``,
  :mod:`repro.serve.clients`) block on their in-flight request, behind an
  optional admission policy (``PolicyConfig(admission="queue-cap:32")``,
  :mod:`repro.serve.admission`);
* named tenants (``WorkloadConfig(tenants="chat:interactive:w=4:...")``,
  :mod:`repro.serve.tenancy`) share the fleet under a dispatch scheduler
  (``PolicyConfig(scheduler="weighted-fair")``) with optional preemption.

The same entry point backs ``python -m repro serve`` and the
``benchmarks/bench_serving.py`` suite.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import seeds
from repro.models.zoo import get_workload
from repro.serve.admission import (
    ADMISSION_POLICIES,
    TenantTokenBucket,
    TokenBucket,
    parse_admission,
)
from repro.serve.batching import BatchingPolicy, default_buckets
from repro.serve.clients import (
    THINK_DISTS,
    ClientPopulation,
    RetryPolicy,
    estimated_saturation_clients,
)
from repro.serve.config import (
    ROUTING_POLICIES,
    FleetConfig,
    ObserveConfig,
    PolicyConfig,
    ServingConfig,
    WorkloadConfig,
    _resolved_tenancy,
)
from repro.serve.decode import DECODE_DISTS, DecodeConfig, sample_decode_lens
from repro.serve.cluster import Cluster, PLACEMENTS
from repro.serve.elastic import ElasticConfig, parse_autoscale
from repro.serve.engine import ServingEngine, ServingResult
from repro.serve.fleet import MODES, FleetSpec, homogeneous_fleet, parse_fleet
from repro.serve.observe import (
    EventLog,
    JsonlTraceSink,
    MetricsRecorder,
    format_engine_profile,
    format_trace_summary,
    lifecycle_tracer,
    summarize_trace,
)
from repro.serve.metrics import (
    ServingReport,
    format_serving,
    percentile,
    summarize,
)
from repro.serve.power import PowerConfig, ThrottlePolicy
from repro.serve.tenancy import (
    SCHEDULERS,
    Tenant,
    TenancyConfig,
    parse_tenants,
    tenant_traces,
)
from repro.serve.regions import format_regions, simulate_regions
from repro.serve.served import ServedRequest
from repro.serve.streaming import StreamingMetrics
from repro.serve.traces import (
    Request,
    SEQLEN_DISTS,
    TRACE_KINDS,
    TraceColumns,
    diurnal_trace,
    make_trace,
    merge_traces,
    sample_seqlens,
    with_decode_lens,
    with_seqlens,
)

__all__ = [
    "ADMISSION_POLICIES",
    "BatchingPolicy",
    "Cluster",
    "DECODE_DISTS",
    "DecodeConfig",
    "ElasticConfig",
    "EventLog",
    "FleetConfig",
    "FleetSpec",
    "JsonlTraceSink",
    "MODES",
    "MetricsRecorder",
    "ObserveConfig",
    "PLACEMENTS",
    "PolicyConfig",
    "PowerConfig",
    "ROUTING_POLICIES",
    "Request",
    "SCHEDULERS",
    "SEQLEN_DISTS",
    "ServedRequest",
    "ServingConfig",
    "ServingEngine",
    "ServingReport",
    "ServingResult",
    "StreamingMetrics",
    "THINK_DISTS",
    "TRACE_KINDS",
    "Tenant",
    "TenancyConfig",
    "ThrottlePolicy",
    "WorkloadConfig",
    "diurnal_trace",
    "estimated_saturation_clients",
    "format_engine_profile",
    "format_regions",
    "format_serving",
    "format_trace_summary",
    "homogeneous_fleet",
    "make_trace",
    "merge_traces",
    "parse_admission",
    "parse_autoscale",
    "parse_fleet",
    "parse_tenants",
    "percentile",
    "sample_decode_lens",
    "sample_seqlens",
    "simulate_regions",
    "simulate_serving",
    "summarize",
    "summarize_trace",
    "tenant_traces",
    "with_decode_lens",
    "with_seqlens",
]


def open_loop_stream(
    kind: str,
    model: str,
    rps: float,
    duration_s: float,
    seed: int,
    tenant: int,
    index: int,
    seqlen_dist: Optional[str] = None,
    seqlen_mean: Optional[int] = None,
    native_seq_len: int = 0,
    max_context: Optional[int] = None,
) -> Tuple[TraceColumns, int]:
    """One model's open-loop stream: arrivals, then sequence lengths.

    Arrivals draw on ``seeds.arrival(seed, tenant, index)``; untagged
    traffic is tenant 0.  A transformer (``native_seq_len > 0``) under a
    ``seqlen_dist`` also draws lengths on ``seeds.seqlen(seed, tenant,
    index)`` around ``seqlen_mean`` (default: its native length), clamped
    to ``max_context``.  Returns the stream and its longest sampled length
    (0 when none was drawn).  :func:`simulate_serving` and
    :func:`~repro.serve.tenancy.tenant_traces` both build their streams
    here; it lives in this namespace, where the stack benchmark's tracer
    patches the trace builders it calls.
    """
    sub = make_trace(
        kind, model, rps, duration_s, seed=seeds.arrival(seed, tenant, index)
    )
    if seqlen_dist is None or native_seq_len <= 0:
        return sub, 0
    lens = sample_seqlens(
        seqlen_dist,
        len(sub),
        seqlen_mean if seqlen_mean else native_seq_len,
        seed=seeds.seqlen(seed, tenant, index),
        trace_kind=kind,
    )
    if max_context is not None:
        lens = tuple(min(s, max_context) for s in lens)
    return with_seqlens(sub, lens), max(lens, default=0)


def simulate_serving(
    config: ServingConfig,
) -> Tuple[ServingReport, ServingResult]:
    """End-to-end serving run: build trace + cluster, simulate, summarize.

    ``config`` is validated against the composition-rule table first; the
    sub-config docstrings (:class:`WorkloadConfig`, :class:`FleetConfig`,
    :class:`PolicyConfig`, :class:`ObserveConfig`, :class:`DecodeConfig`)
    describe every knob.
    """
    config.validate()
    w, f, p, o = config.workload, config.fleet, config.policy, config.observe
    models, seed, duration_s = w.models, w.seed, w.duration_s
    seqlen_dist, seqlen_mean = w.seqlen_dist, w.seqlen_mean
    decode_cfg, admission, elastic = config.decode, p.admission, f.elastic
    tenancy = _resolved_tenancy(w.tenants, p)
    workloads = [get_workload(name) for name in models]
    # Explicit boundaries win; otherwise each branch derives them from
    # what it sampled.  The largest boundary is the serving max context.
    buckets = p.seqlen_buckets
    max_context = max(buckets) if buckets else None
    population: Optional[ClientPopulation] = None
    if w.clients is not None:
        # Closed loop: sessions generate arrivals, so the only trace work
        # is fixing the padding buckets up front.  Without explicit
        # boundaries, cover up to the longtail sampler's 8x-mean ceiling
        # (longer lognormal draws clamp to the top bucket, the same
        # max-context rule the open-loop path applies).
        trace = ()
        if buckets is None:
            means = [
                seqlen_mean if seqlen_mean else wl.seq_len
                for wl in workloads
                if wl.seq_len > 0
            ]
            buckets = (
                default_buckets(8 * max(means))
                if seqlen_dist is not None and means
                else ()
            )
        retry = w.retry
        if isinstance(retry, int):
            retry = RetryPolicy(max_retries=retry)
        population = ClientPopulation(
            models=models,
            n_clients=w.clients,
            think_time_ms=w.think_time_ms,
            think_dist=w.think_dist,
            horizon_s=duration_s,
            seed=seed,
            retry=retry,
            seqlen_dist=seqlen_dist,
            seqlen_mean=seqlen_mean,
            max_seq_len=max(buckets) if buckets else None,
        )
    else:
        if tenancy is not None:
            # Each tenant declares its own traffic mix; the run-level rps /
            # trace_kind / seqlen knobs do not apply.  Seed lanes come from
            # repro.seeds, where tenant 0 is the untagged layout.
            trace, max_sampled = tenant_traces(
                tenancy,
                duration_s,
                seed,
                default_models=models,
                native_seq_len={
                    name: wl.seq_len for name, wl in zip(models, workloads)
                },
                max_context=max_context,
            )
        else:
            trace_kind = w.trace_kind
            per_model_rps = w.rps / len(models)
            sub_traces = []
            max_sampled = 0
            for i, (name, workload) in enumerate(zip(models, workloads)):
                sub, longest = open_loop_stream(
                    trace_kind, name, per_model_rps, duration_s, seed, 0, i,
                    seqlen_dist=seqlen_dist,
                    seqlen_mean=seqlen_mean,
                    native_seq_len=workload.seq_len,
                    max_context=max_context,
                )
                max_sampled = max(max_sampled, longest)
                if decode_cfg is not None and workload.seq_len > 0:
                    # Decode lengths draw on their own lane (repro.seeds), so
                    # turning decode on never perturbs the prefill-side trace.
                    dlens = sample_decode_lens(
                        decode_cfg,
                        len(sub),
                        seed=seeds.arrival(seed, model=i),
                        trace_kind=trace_kind,
                    )
                    sub = with_decode_lens(sub, dlens)
                sub_traces.append(sub)
            trace = merge_traces(*sub_traces)
        if buckets is None:
            buckets = default_buckets(max_sampled) if max_sampled else ()
    cluster = Cluster(workloads, f.fleet, f.placement)
    policy = BatchingPolicy(
        max_batch_size=p.max_batch_size,
        window_ns=p.window_ms * 1e6,
        seqlen_buckets=buckets,
    )
    if tenancy is not None:
        # Tenants declaring a rate= limit get their own admission token
        # buckets, charged at their *declared* rate, in front of any
        # cluster-wide policy.
        limits = {
            t.name: TokenBucket(t.rate_limit_rps, t.rate_limit_burst)
            for t in tenancy.tenants
            if t.rate_limit_rps is not None
        }
        if limits:
            inner = (
                parse_admission(admission)
                if isinstance(admission, str)
                else admission
            )
            admission = TenantTokenBucket(limits, inner=inner)
    if isinstance(elastic, str):
        elastic = parse_autoscale(elastic)
    renderers = []
    if o.trace_file is not None:
        renderers.append(lifecycle_tracer(o.trace_file))
    if o.metrics_file is not None:
        renderers.append(
            MetricsRecorder(o.metrics_window_ms, path=o.metrics_file)
        )
    engine = ServingEngine(
        cluster,
        policy,
        routing=f.routing,
        power=f.power,
        admission=admission,
        tenancy=tenancy,
        elastic=elastic,
        profile=o.profile_engine,
        decode=decode_cfg,
    )
    result = engine.run(
        trace,
        clients=population,
        stream=o.stream_metrics,
        log=EventLog(renderers) if renderers else None,
    )
    report = summarize(result, cluster, slo_ms=p.slo_ms, tenancy=tenancy)
    return report, result
