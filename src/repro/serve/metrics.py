"""Serving metrics: tail latency, SLO attainment, goodput, energy/request.

Turns a :class:`repro.serve.engine.ServingResult` into the numbers a
capacity-planning study reads — per-model latency percentiles, goodput
against a latency SLO, per-chip utilization and energy per request — and
renders them as the same aligned-ASCII report style the paper artifacts
use (:mod:`repro.experiments.report`).

One builder, ``_sections``, computes every report section through five
queries that one adapter, ``_Rows``, answers from the run's served record
(``result.served``, a :class:`~repro.serve.served.ServedColumns`).

Exactness contract: every run, streamed or not, lands its completions in
that one arrival-ordered record, and every report number is read from
it the same way.  Float sums are Python ``sum()`` over the selection's
``.tolist()`` in arrival order (compensated from CPython 3.12 on, unlike
``np.sum`` or ``np.cumsum``), and percentiles are
``_percentiles_from_sorted``'s interpolation.  A streamed report
therefore equals the unstreamed one bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.experiments.report import format_table
from repro.serve.cluster import DEFAULT_SLO_MULTIPLE, Cluster
from repro.serve.elastic import ElasticTrace
from repro.serve.engine import ServingResult
from repro.serve.power import PowerTrace
from repro.serve.served import _percentiles_from_sorted, ordered_sum
from repro.serve.tenancy import TenancyConfig, deadline_ns


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), dependency-free."""
    return _percentiles_from_sorted(sorted(values), (q,))[0]


@dataclasses.dataclass(frozen=True)
class ModelServingStats:
    """Latency/SLO/energy roll-up for one model's requests.

    The token fields are 0 for native-shape traffic (CNNs, traces without
    a sequence-length distribution) and populated only when requests carry
    explicit per-request sequence lengths.
    """

    model: str
    n_requests: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    mean_batch_size: float
    energy_per_request_uj: float
    slo_ms: float
    slo_attainment: float  # fraction of requests finishing within the SLO
    mean_seq_len: float = 0.0  # real tokens per request
    tokens_per_s: float = 0.0  # real-token goodput over the makespan
    energy_per_token_nj: float = 0.0  # energy over *real* tokens
    padding_overhead: float = 0.0  # wasted fraction of processed tokens
    # Decode-loop accounting; populated only when requests ran an
    # autoregressive decode loop (has_decode gates the report columns).
    ttft_p50_ms: float = 0.0  # time to first token (prefill completion)
    ttft_p99_ms: float = 0.0
    itl_p50_ms: float = 0.0  # mean inter-token latency per request
    itl_p99_ms: float = 0.0
    mean_decode_tokens: float = 0.0  # generated tokens per request
    kv_overflow: float = 0.0  # off-chip fraction of decode KV traffic


@dataclasses.dataclass(frozen=True)
class ChipTypeStats:
    """Serving roll-up for one fleet group (chip type) of the cluster.

    Populated for every run (a homogeneous cluster has exactly one
    entry); the per-chip-type report section renders only when the fleet
    is actually mixed, so homogeneous reports keep their legacy format.
    """

    chip_type: str
    n_chips: int
    n_requests: int  # requests whose batch ran on this group's chips
    mean_utilization: float  # busy fraction averaged over the group
    energy_uj: float  # total energy this group spent
    energy_per_request_uj: float
    goodput_rps: float  # in-SLO requests this group completed per second
    #: Average active draw per chip while serving (group energy over the
    #: group's summed busy time) — derived from the result alone, so
    #: heterogeneous power comparisons work without enabling the power
    #: governor at all.  0.0 when the group never served a batch.
    watts: float = 0.0


@dataclasses.dataclass(frozen=True)
class TenantStats:
    """Serving roll-up for one tenant of a multi-tenant run.

    Attainment is scored against the tenant's own deadline (its SLO
    class's multiple of each model's batch-1 floor, or its absolute
    override) when the tenancy config is handed to :func:`summarize`,
    falling back to the report's per-model SLO otherwise.  All ratios are
    zero-guarded: a tenant whose every request was shed (or that never
    completed anything inside the horizon) reports 0.0 latencies and a
    vacuous attainment of 1.0 rather than dividing by zero.
    """

    tenant: str
    slo_class: str
    weight: float
    n_offered: int  # distinct requests reaching the front door
    n_requests: int  # served
    n_dropped: int  # shed for good by admission
    p50_ms: float
    p99_ms: float
    mean_ms: float
    slo_attainment: float  # vacuous 1.0 when nothing was served
    goodput_rps: float  # in-deadline completions per second of makespan
    n_preemptions: int  # batches this tenant lost mid-service
    preempted_wasted_ms: float  # service time those losses burned

    @property
    def rejection_rate(self) -> float:
        if self.n_offered == 0:
            return 0.0
        return self.n_dropped / self.n_offered


@dataclasses.dataclass(frozen=True)
class ServingReport:
    """Cluster-wide summary of one serving simulation."""

    accelerator: str
    n_chips: int
    n_requests: int
    n_batches: int
    duration_s: float  # makespan: first arrival epoch to last completion
    throughput_rps: float
    goodput_rps: float  # completed-within-SLO requests per second
    energy_per_request_uj: float
    mean_batch_size: float
    chip_utilization: Tuple[float, ...]
    per_model: Tuple[ModelServingStats, ...]
    # Token-level accounting; populated only when the run carried explicit
    # per-request sequence lengths (has_tokens gates the report columns).
    tokens_per_s: float = 0.0  # real-token goodput over the makespan
    energy_per_token_nj: float = 0.0  # energy over real (unpadded) tokens
    padding_overhead: float = 0.0  # wasted fraction of processed tokens
    # Per-fleet-group accounting; a single entry for homogeneous clusters
    # (has_chip_types gates the extra report section).
    per_chip_type: Tuple[ChipTypeStats, ...] = ()
    # The power governor's per-group trace; None on power-blind runs
    # (has_power gates the power section so unconstrained runs keep the
    # legacy report byte for byte).
    power: Optional[PowerTrace] = None
    # Admission-control accounting (has_admission gates the report line;
    # accept-all and no-admission runs keep the legacy format byte for
    # byte).  n_offered counts distinct requests reaching the front door.
    admission: Optional[str] = None
    n_offered: int = 0
    n_dropped: int = 0
    n_retries: int = 0
    # Closed-loop client accounting (has_clients gates the report line;
    # n_clients == 0 means the run was open-loop).
    n_clients: int = 0
    think_time_ms: float = 0.0
    think_dist: str = ""
    # Multi-tenant accounting (has_tenants gates the section; a
    # degenerate single-tenant fifo run without preemptions keeps the
    # legacy report byte for byte).
    per_tenant: Tuple[TenantStats, ...] = ()
    scheduler: Optional[str] = None
    n_preemptions: int = 0
    preempted_wasted_ms: float = 0.0
    # Elastic-fleet scaling history (has_elastic gates the report line;
    # inelastic runs — including the full-fleet static band, which the
    # engine collapses to the legacy path — keep the format byte for
    # byte).
    elastic: Optional[ElasticTrace] = None
    # Autoregressive-decode accounting (has_decode gates the report line
    # and the TTFT/ITL columns; decode=None runs keep the legacy format
    # byte for byte).
    n_decode_iters: int = 0
    decode_tokens_per_s: float = 0.0  # generated-token rate over makespan
    kv_overflow: float = 0.0  # off-chip fraction of decode KV traffic

    @property
    def has_tokens(self) -> bool:
        return any(m.mean_seq_len > 0 for m in self.per_model)

    @property
    def has_decode(self) -> bool:
        """Did the run generate tokens through a decode loop?"""
        return self.n_decode_iters > 0 or any(
            m.mean_decode_tokens > 0 for m in self.per_model
        )

    @property
    def has_admission(self) -> bool:
        """Did a genuinely shedding-capable admission layer run the show?

        ``accept-all`` is the provable no-op, so only a real policy (or an
        actual drop) renders the admission line — the golden-guarded
        gating, mirroring :attr:`has_power`.
        """
        return (
            self.admission is not None and self.admission != "accept-all"
        ) or self.n_dropped > 0

    @property
    def has_clients(self) -> bool:
        return self.n_clients > 0

    @property
    def rejection_rate(self) -> float:
        """Dropped fraction of offered requests (0.0 on an empty run)."""
        if self.n_offered == 0:
            return 0.0
        return self.n_dropped / self.n_offered

    @property
    def requests_per_client(self) -> float:
        """Served requests per closed-loop session (0.0 when open-loop)."""
        if self.n_clients == 0:
            return 0.0
        return self.n_requests / self.n_clients

    @property
    def has_tenants(self) -> bool:
        """Is the tenant breakdown worth a section of its own?

        Only when the run was genuinely multi-tenant — more than one
        declared tenant, a non-fifo scheduler, or at least one preemption.
        The degenerate single-tenant fifo configuration stays on the
        legacy report format byte for byte (golden-guarded), with its
        per-tenant stats still available programmatically.
        """
        return (
            len(self.per_tenant) > 1
            or self.n_preemptions > 0
            or self.scheduler not in (None, "fifo")
        )

    @property
    def has_chip_types(self) -> bool:
        """Is this a genuinely mixed fleet worth a per-type breakdown?"""
        return len(self.per_chip_type) > 1

    @property
    def has_elastic(self) -> bool:
        """Did the run carry an autoscaling contract that could act?"""
        return self.elastic is not None

    @property
    def has_power(self) -> bool:
        """Did a *binding* envelope (cap or thermal limit) run the show?

        An unconstrained governor run still carries its trace on
        :attr:`power` for programmatic use, but only a constrained one
        renders the power section — the golden-guarded gating.
        """
        return self.power is not None and self.power.constrained

    @property
    def slo_attainment(self) -> float:
        if self.n_requests == 0:
            return 1.0
        met = sum(m.slo_attainment * m.n_requests for m in self.per_model)
        return met / self.n_requests

    @property
    def mean_chip_utilization(self) -> float:
        if not self.chip_utilization:
            return 0.0
        return sum(self.chip_utilization) / len(self.chip_utilization)


class _Rows:
    """The five section queries, answered from the run's served record.

    A selection names a model, tenant and/or chip type (``None``: all).
    """

    def __init__(self, result: ServingResult, cluster: Cluster) -> None:
        self._result = result
        self._served = result.served
        self._cluster = cluster
        self._latency = result.served.latency_ms()

    def _select(self, model=None, tenant=None, chip_type=None) -> np.ndarray:
        chips = None if chip_type is None else self._cluster.chips_of_type(chip_type)
        return self._served.mask(model, tenant, chips)

    def latencies(self, model=None, tenant=None, chip_type=None) -> np.ndarray:
        """The selection's latency column in ms (read-only)."""
        keep = self._select(model, tenant, chip_type)
        return self._latency if keep.all() else self._latency[keep]

    def latency_sum(self, model=None, tenant=None) -> float:
        return ordered_sum(self.latencies(model, tenant))

    def energy_pj(self, model=None, chip_type=None) -> float:
        keep = self._select(model, None, chip_type)
        if keep.all():
            return self._result.total_energy_pj  # the same sum, taken once
        return ordered_sum(self._served.column("energy_pj")[keep])

    def totals(self, model: str) -> Tuple[int, int, float]:
        """The model's real tokens, padded tokens and batch count."""
        keep = self._select(model)
        served = self._served
        # A batch of b requests leaves b records of batch size b (decode
        # records keep their prefill batch's), so each term is an integer.
        counts = np.bincount(served.column("batch_size")[keep]).tolist()
        return (
            int(served.requests.seq_len[keep].sum()),
            int(served.column("padded_seq_len")[keep].sum()),
            sum(n / b for b, n in enumerate(counts) if n),
        )

    def decode(self, model: str):
        """``(ttft_ms, itl_ms, tokens, kv, kv_spilled)`` over the model's
        decoded requests, or ``None`` when it has none."""
        served = self._served
        tokens = served.requests.decode_tokens
        keep = self._select(model) & (tokens > 0)
        if not keep.any():
            return None
        first = served.column("first_token_ns")[keep]
        return (
            (first - served.requests.arrival_ns[keep]) * 1e-6,
            (served.column("finish_ns")[keep] - first) / tokens[keep] * 1e-6,
            int(tokens[keep].sum()),
            ordered_sum(served.column("kv_bytes")[keep]),
            ordered_sum(served.column("kv_overflow_bytes")[keep]),
        )


def _sections(
    q,
    result: ServingResult,
    cluster: Cluster,
    slo_ms: Optional[float],
    tenancy: Optional[TenancyConfig],
    duration_s: float,
):
    """Per-model / per-chip-type / per-tenant stats through the queries ``q``.

    Each SLO and each per-(tenant, model) deadline is computed once, and
    each latency selection is sorted once for all of its percentiles.
    """

    def rate(count: float) -> float:
        return count / duration_s if duration_s > 0 else 0.0

    def met(deadlines: dict, **selection) -> int:
        """Requests of the selection finishing within their model's deadline."""
        return sum(
            int((q.latencies(model=m, **selection) <= d).sum())
            for m, d in deadlines.items()
        )

    model_slo = {
        m: slo_ms
        if slo_ms is not None
        else DEFAULT_SLO_MULTIPLE * cluster.reference_latency_ns(m) * 1e-6
        for m in result.models
    }
    per_model = []
    met_total = 0
    for model, slo in model_slo.items():
        lat = q.latencies(model=model)
        n = len(lat)
        met_here = int((lat <= slo).sum())
        met_total += met_here
        energy_pj = q.energy_pj(model=model)
        tokens, padded, n_batches = q.totals(model)
        ordered = np.sort(lat)
        p50, p95, p99 = _percentiles_from_sorted(ordered, (50, 95, 99))
        decode_stats = {}
        decode = q.decode(model)
        if decode is not None:
            ttft, itl, decode_tokens, kv, kv_spilled = decode
            t50, t99 = _percentiles_from_sorted(np.sort(ttft), (50, 99))
            i50, i99 = _percentiles_from_sorted(np.sort(itl), (50, 99))
            decode_stats = dict(
                ttft_p50_ms=t50, ttft_p99_ms=t99, itl_p50_ms=i50, itl_p99_ms=i99,
                mean_decode_tokens=decode_tokens / n,
                kv_overflow=kv_spilled / kv if kv > 0 else 0.0,
            )
        per_model.append(
            ModelServingStats(
                model=model,
                n_requests=n,
                p50_ms=p50,
                p95_ms=p95,
                p99_ms=p99,
                mean_ms=q.latency_sum(model=model) / n,
                max_ms=float(ordered[-1]),
                mean_batch_size=n / n_batches,
                energy_per_request_uj=energy_pj * 1e-6 / n,
                slo_ms=slo,
                slo_attainment=met_here / n,
                mean_seq_len=tokens / n if tokens else 0.0,
                tokens_per_s=rate(tokens),
                energy_per_token_nj=energy_pj * 1e-3 / tokens if tokens else 0.0,
                padding_overhead=(padded - tokens) / padded if padded else 0.0,
                **decode_stats,
            )
        )
    per_chip_type = []
    utilization = result.chip_utilization
    for chip_type in cluster.chip_types:
        ids = cluster.chips_of_type(chip_type)
        n = len(q.latencies(chip_type=chip_type))
        energy_pj = q.energy_pj(chip_type=chip_type)
        energy_uj = energy_pj * 1e-6
        busy_ns = sum(result.chip_busy_ns[i] for i in ids)
        per_chip_type.append(
            ChipTypeStats(
                chip_type=chip_type,
                n_chips=len(ids),
                n_requests=n,
                mean_utilization=sum(utilization[i] for i in ids) / len(ids),
                energy_uj=energy_uj,
                energy_per_request_uj=energy_uj / n if n else 0.0,
                goodput_rps=rate(met(model_slo, chip_type=chip_type)),
                # pJ/ns is mW, so this is the busy-time average in watts.
                watts=energy_pj / busy_ns * 1e-3 if busy_ns > 0 else 0.0,
            )
        )
    per_tenant = []
    for name in result.tenants:
        tenant_cfg = tenancy.tenant(name) if tenancy is not None else None
        deadlines = model_slo if tenant_cfg is None else {
            m: deadline_ns(tenant_cfg, m, cluster) * 1e-6 for m in model_slo
        }
        lat = q.latencies(tenant=name)
        n = len(lat)
        n_dropped = len(result.rejected_for_tenant(name))
        met_here = met(deadlines, tenant=name)
        lost = [p for p in result.preempted if p.tenant == name]
        if n:
            p50, p99 = _percentiles_from_sorted(np.sort(lat), (50, 99))
            mean_ms = q.latency_sum(tenant=name) / n
        else:
            p50 = p99 = mean_ms = 0.0
        per_tenant.append(
            TenantStats(
                tenant=name,
                slo_class=tenant_cfg.slo_class if tenant_cfg is not None else "",
                weight=tenant_cfg.weight if tenant_cfg is not None else 1.0,
                n_offered=n + n_dropped,
                n_requests=n,
                n_dropped=n_dropped,
                p50_ms=p50,
                p99_ms=p99,
                mean_ms=mean_ms,
                slo_attainment=met_here / n if n else 1.0,
                goodput_rps=rate(met_here),
                n_preemptions=len(lost),
                preempted_wasted_ms=sum(p.wasted_ns for p in lost) * 1e-6,
            )
        )
    return per_model, met_total, per_chip_type, per_tenant


def summarize(
    result: ServingResult,
    cluster: Cluster,
    slo_ms: Optional[float] = None,
    tenancy: Optional[TenancyConfig] = None,
) -> ServingReport:
    """Roll a simulation up into a :class:`ServingReport`.

    The SLO defaults to :data:`~repro.serve.cluster.DEFAULT_SLO_MULTIPLE`
    times each model's batch-1 service latency on its best hosting chip —
    the no-queueing floor, independent of fleet group order — so it scales
    sensibly from AlexNet to LLaMA without per-model tuning.

    Pass the run's ``tenancy`` config to score each tenant's attainment
    against its *own* SLO-class deadline; without it, tenants are scored
    against the report-level per-model SLO like everything else.
    """
    duration_s = result.makespan_ns * 1e-9
    q = _Rows(result, cluster)
    per_model, met_total, per_chip_type, per_tenant = _sections(
        q, result, cluster, slo_ms, tenancy, duration_s
    )
    throughput = result.n_requests / duration_s if duration_s > 0 else 0.0
    goodput = met_total / duration_s if duration_s > 0 else 0.0
    total_energy_uj = result.total_energy_pj * 1e-6
    per_request_uj = (
        total_energy_uj / result.n_requests if result.n_requests else 0.0
    )
    total_tokens = result.total_tokens
    accelerator = (
        "+".join(cluster.chip_types)
        if cluster.heterogeneous
        else cluster.spec.name
    )
    clients = result.clients
    return ServingReport(
        admission=result.admission,
        n_offered=result.n_offered,
        n_dropped=result.n_dropped,
        n_retries=result.n_retries,
        n_clients=result.n_clients,
        think_time_ms=clients.think_time_ms if clients is not None else 0.0,
        think_dist=clients.think_dist if clients is not None else "",
        accelerator=accelerator,
        n_chips=result.n_chips,
        n_requests=result.n_requests,
        n_batches=result.n_batches,
        duration_s=duration_s,
        throughput_rps=throughput,
        goodput_rps=goodput,
        energy_per_request_uj=per_request_uj,
        mean_batch_size=result.mean_batch_size,
        chip_utilization=result.chip_utilization,
        per_model=tuple(per_model),
        tokens_per_s=total_tokens / duration_s if duration_s > 0 else 0.0,
        energy_per_token_nj=(
            result.total_energy_pj * 1e-3 / total_tokens if total_tokens else 0.0
        ),
        padding_overhead=result.padding_overhead,
        per_chip_type=tuple(per_chip_type),
        power=result.power,
        per_tenant=tuple(per_tenant),
        scheduler=result.scheduler,
        n_preemptions=result.n_preemptions,
        preempted_wasted_ms=result.preempted_wasted_ns * 1e-6,
        elastic=result.elastic,
        n_decode_iters=result.n_decode_iters,
        decode_tokens_per_s=(
            result.n_decode_tokens / duration_s if duration_s > 0 else 0.0
        ),
        kv_overflow=result.kv_overflow,
    )


def format_serving(report: ServingReport) -> str:
    """Render a serving report in the artifact style of the repo.

    Token-level lines and columns appear only when the run carried
    per-request sequence lengths, the per-chip-type section only when the
    fleet is genuinely mixed, and the power section only when a binding
    power/thermal envelope was configured — so native-shape homogeneous
    uncapped reports stay byte-identical to the pre-seqlen, pre-fleet,
    pre-power format.
    """
    if report.has_chip_types:
        fleet_desc = " + ".join(
            f"{t.n_chips} x {t.chip_type}" for t in report.per_chip_type
        )
        cluster_line = f"cluster           : {fleet_desc}"
    else:
        cluster_line = f"cluster           : {report.n_chips} x {report.accelerator}"
    lines = [
        cluster_line,
        f"requests served   : {report.n_requests} in {report.n_batches} batches "
        f"(mean batch {report.mean_batch_size:.2f})",
        f"simulated horizon : {report.duration_s * 1e3:.3f} ms",
        f"throughput        : {report.throughput_rps:.1f} req/s",
        f"goodput (in-SLO)  : {report.goodput_rps:.1f} req/s "
        f"({100 * report.slo_attainment:.1f} % attainment)",
        f"energy/request    : {report.energy_per_request_uj:.3f} uJ",
    ]
    if report.has_clients:
        lines.append(
            f"closed-loop       : {report.n_clients} clients, think "
            f"{report.think_time_ms:g} ms ({report.think_dist}), "
            f"{report.requests_per_client:.1f} req/client"
        )
    if report.has_admission:
        lines.append(
            f"admission         : {report.admission or 'accept-all'} — "
            f"offered {report.n_offered}, shed {report.n_dropped} "
            f"({100 * report.rejection_rate:.1f} %), retries {report.n_retries}"
        )
    if report.has_tenants:
        lines.append(
            f"tenancy           : {report.scheduler} scheduler, "
            f"{len(report.per_tenant)} tenants — "
            f"{report.n_preemptions} preemptions "
            f"({report.preempted_wasted_ms:.3f} ms wasted)"
        )
    if report.has_elastic:
        et = report.elastic
        lines.append(
            f"autoscaling       : {et.min_serving}..{et.max_serving} of "
            f"{et.n_fleet} chips (band {et.min_chips}..{et.max_chips}), "
            f"{et.n_scale_ups} ups / {et.n_drains} drains — "
            f"{et.chip_seconds * 1e3:.3f} chip-ms vs "
            f"{et.static_chip_seconds * 1e3:.3f} static "
            f"({100 * et.chip_seconds_saved:.1f} % saved)"
        )
    if report.has_tokens:
        lines += [
            f"token goodput     : {report.tokens_per_s:.0f} tok/s",
            f"energy/token      : {report.energy_per_token_nj:.3f} nJ",
            f"padding overhead  : {100 * report.padding_overhead:.1f} % "
            "of processed tokens",
        ]
    if report.has_decode:
        lines.append(
            f"decode            : {report.n_decode_iters} iterations, "
            f"{report.decode_tokens_per_s:.0f} tok/s generated, "
            f"KV overflow {100 * report.kv_overflow:.1f} %"
        )
    lines += [
        f"chip utilization  : mean {100 * report.mean_chip_utilization:.1f} %  "
        + " ".join(f"[{100 * u:.0f}%]" for u in report.chip_utilization),
        "",
    ]
    header = ["model", "reqs", "p50 ms", "p95 ms", "p99 ms", "mean ms",
              "SLO ms", "attain", "uJ/req"]
    rows = [
        [
            m.model,
            m.n_requests,
            f"{m.p50_ms:.4f}",
            f"{m.p95_ms:.4f}",
            f"{m.p99_ms:.4f}",
            f"{m.mean_ms:.4f}",
            f"{m.slo_ms:.4f}",
            f"{100 * m.slo_attainment:.1f}%",
            f"{m.energy_per_request_uj:.3f}",
        ]
        for m in report.per_model
    ]
    if report.has_tokens:
        header += ["seq", "tok/s", "nJ/tok", "pad%"]
        for row, m in zip(rows, report.per_model):
            row += [
                f"{m.mean_seq_len:.0f}",
                f"{m.tokens_per_s:.0f}",
                f"{m.energy_per_token_nj:.3f}",
                f"{100 * m.padding_overhead:.1f}%",
            ]
    if report.has_decode:
        header += [
            "ttft p50", "ttft p99", "itl p50", "itl p99", "dec tok",
            "kv_overflow",
        ]
        for row, m in zip(rows, report.per_model):
            row += [
                f"{m.ttft_p50_ms:.4f}",
                f"{m.ttft_p99_ms:.4f}",
                f"{m.itl_p50_ms:.4f}",
                f"{m.itl_p99_ms:.4f}",
                f"{m.mean_decode_tokens:.1f}",
                f"{100 * m.kv_overflow:.1f}%",
            ]
    lines.append(format_table(tuple(header), [tuple(r) for r in rows]))
    if report.has_tenants:
        lines.append("")
        lines.append(
            format_table(
                ("tenant", "class", "w", "offered", "served", "shed",
                 "p50 ms", "p99 ms", "attain", "goodput r/s", "preempt"),
                [
                    (
                        t.tenant,
                        t.slo_class or "-",
                        f"{t.weight:g}",
                        t.n_offered,
                        t.n_requests,
                        f"{t.n_dropped} ({100 * t.rejection_rate:.0f}%)",
                        f"{t.p50_ms:.4f}",
                        f"{t.p99_ms:.4f}",
                        f"{100 * t.slo_attainment:.1f}%",
                        f"{t.goodput_rps:.1f}",
                        t.n_preemptions,
                    )
                    for t in report.per_tenant
                ],
            )
        )
    if report.has_chip_types:
        lines.append("")
        lines.append(
            format_table(
                ("chip type", "chips", "reqs", "util", "uJ/req",
                 "goodput req/s", "busy W/chip"),
                [
                    (
                        t.chip_type,
                        t.n_chips,
                        t.n_requests,
                        f"{100 * t.mean_utilization:.1f}%",
                        f"{t.energy_per_request_uj:.3f}",
                        f"{t.goodput_rps:.1f}",
                        f"{t.watts:.3f}",
                    )
                    for t in report.per_chip_type
                ],
            )
        )
    if report.has_power:
        trace = report.power
        horizon = trace.horizon_ns
        lines.append("")
        lines.append(
            format_table(
                ("chip group", "cap W", "avg W", "peak W", "over-cap",
                 "stall", "peak C"),
                [
                    (
                        g.name,
                        "-" if g.cap_w is None else f"{g.cap_w:.2f}",
                        f"{g.avg_w:.3f}",
                        f"{g.peak_w:.3f}",
                        (
                            f"{100 * g.over_cap_ns / horizon:.1f}%"
                            if horizon > 0
                            else "0.0%"
                        ),
                        # Throttle-added service time as a share of the
                        # group's total chip-time over the horizon.
                        (
                            f"{100 * g.stall_ns / (horizon * g.n_chips):.1f}%"
                            if horizon > 0
                            else "0.0%"
                        ),
                        f"{g.peak_temp_c:.1f}",
                    )
                    for g in trace.groups
                ],
            )
        )
        infeasible = [g.name for g in trace.groups if not g.feasible]
        if infeasible:
            lines.append(
                f"(cap below the idle floor of {', '.join(infeasible)} — "
                "unattainable; pinned at max slowdown)"
            )
    return "\n".join(lines)
