"""Multi-tenant serving: priority classes, fair queueing and preemption.

A real fleet is shared: interactive chatbots, batch summarization and
best-effort jobs contend for the same chips.  This module names the
contenders — a :class:`Tenant` carries its own traffic mix (trace kind,
rate, models, sequence-length distribution), an SLO class and a weight —
and decides between them: a pluggable :class:`Scheduler` orders dispatch
across per-tenant queues, and the engine may *preempt* a running batch
when a latency-critical arrival would otherwise miss its deadline.

Three SLO classes (:data:`SLO_CLASSES`) set the vocabulary:

* ``interactive`` — tight deadline (10x the batch-1 floor by default),
  highest priority, the only class allowed to trigger preemption;
* ``batch`` — loose deadline (50x the floor), mid priority;
* ``best-effort`` — no deadline (attainment is vacuous), lowest priority.

Three schedulers (:data:`SCHEDULERS`) cover the classic shared-cluster
playbook:

* ``fifo`` — globally oldest request first, tenant-blind: exactly the
  pre-tenancy engine, and the degenerate single-tenant configuration
  replays the golden captures byte for byte
  (``tests/test_tenancy_differential.py``);
* ``strict-priority`` — interactive beats batch beats best-effort;
  within a class, FIFO.  Starvation of the lower classes under sustained
  high-priority load is the *point* of this policy, not a bug;
* ``weighted-fair`` — virtual-time deficit accounting (start-time fair
  queueing, batch granularity): each tenant owns a virtual clock that
  advances by ``service_ns / weight`` per dispatched batch, the ready
  queue with the smallest clock dispatches next, and a tenant waking
  from idle is clamped to the global virtual clock so idling banks no
  credit.  Backlogged tenants therefore share chip time in proportion
  to their weights regardless of how much traffic each *offers* — the
  isolation property the hypothesis suite pins down: a tenant
  misbehaving at 10x its declared rate cannot push a protected tenant's
  p99 past a stated bound.

**Preemption** (``TenancyConfig(preemption=True)``): when an interactive
request arrives, every hosting chip is busy, and waiting for the
earliest free chip would miss the request's deadline while preempting
would not, the engine kills the most recently dispatched lower-priority
batch on a hosting chip.  The victim's requests re-enter the *front* of
their queue (arrival stamps intact — their latency keeps accruing), the
burned service time is charged to ``ServingResult.preempted_wasted_ns``
and a :class:`PreemptionRecord`, the chip pays an explicit re-dispatch
overhead (``preemption_overhead_ns``), and the preempting tenant's queue
dispatches onto the freed chip.  The victim batch is re-priced from
scratch when it re-dispatches: preempted work is wasted work, which is
exactly why the engine preempts only when the deadline math says waiting
is worse.

Everything here is deterministic: tenant traces draw from per-tenant
seeded streams (tenant 0 reuses the exact legacy seed layout, so the
single-tenant configuration reproduces the untagged trace bit for bit),
and the schedulers are pure functions of dispatch history.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.serve.traces import (
    SEQLEN_DISTS,
    TRACE_KINDS,
    TraceColumns,
    merge_traces,
    with_tenant,
)

#: Scheduler names the CLI exposes via ``--scheduler``.
SCHEDULERS = ("fifo", "strict-priority", "weighted-fair")


@dataclasses.dataclass(frozen=True)
class SloClass:
    """One service class: a priority rank and a deadline rule.

    ``deadline_multiple`` scales each model's batch-1 service floor
    (:meth:`repro.serve.cluster.Cluster.reference_latency_ns`) into a
    per-(tenant, model) latency deadline; ``None`` means no deadline —
    attainment is vacuously perfect and the class can never justify a
    preemption.  ``preempts`` marks the class whose arrivals may evict
    running lower-priority batches when preemption is enabled.
    """

    name: str
    priority: int  # 0 is most urgent
    deadline_multiple: Optional[float]
    preempts: bool = False


#: The three service classes, keyed by name.  Priority order is the
#: declaration order: interactive > batch > best-effort.
SLO_CLASSES: Mapping[str, SloClass] = {
    "interactive": SloClass("interactive", 0, 10.0, preempts=True),
    "batch": SloClass("batch", 1, 50.0),
    "best-effort": SloClass("best-effort", 2, None),
}


@dataclasses.dataclass(frozen=True)
class Tenant:
    """One named workload sharing the cluster.

    ``rps``/``trace_kind`` shape the tenant's open-loop arrival process
    and ``models`` the services it calls (empty = the run's default model
    set).  ``weight`` is its weighted-fair share; ``rate_limit_rps`` arms
    a per-tenant admission token bucket at that declared rate
    (:class:`repro.serve.admission.TenantTokenBucket`) — the contract a
    misbehaving tenant is measured against.  ``deadline_ms`` overrides
    the SLO class's multiple-of-floor deadline with an absolute one.
    """

    name: str
    slo_class: str = "batch"
    weight: float = 1.0
    rps: float = 1000.0
    trace_kind: str = "poisson"
    models: Tuple[str, ...] = ()
    seqlen_dist: Optional[str] = None
    seqlen_mean: Optional[int] = None
    rate_limit_rps: Optional[float] = None
    rate_limit_burst: float = 8.0
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if ":" in self.name or "," in self.name or "=" in self.name:
            raise ValueError(
                f"tenant name {self.name!r} may not contain ':', ',' or '='"
            )
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"unknown SLO class {self.slo_class!r}; "
                f"available: {tuple(SLO_CLASSES)}"
            )
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.rps <= 0:
            raise ValueError("tenant rps must be positive")
        if self.trace_kind not in TRACE_KINDS:
            raise ValueError(
                f"unknown trace kind {self.trace_kind!r}; "
                f"available: {TRACE_KINDS}"
            )
        if self.seqlen_dist is not None and self.seqlen_dist not in SEQLEN_DISTS:
            raise ValueError(
                f"unknown seqlen dist {self.seqlen_dist!r}; "
                f"available: {SEQLEN_DISTS}"
            )
        if self.seqlen_mean is not None and self.seqlen_mean < 1:
            raise ValueError("seqlen_mean must be >= 1")
        if self.rate_limit_rps is not None and self.rate_limit_rps <= 0:
            raise ValueError("rate_limit_rps must be positive")
        if self.rate_limit_burst < 1:
            raise ValueError("rate_limit_burst must be >= 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")

    @property
    def slo(self) -> SloClass:
        return SLO_CLASSES[self.slo_class]


@dataclasses.dataclass(frozen=True)
class TenancyConfig:
    """The multi-tenant contract one engine run executes under.

    ``preemption_overhead_ns`` is the re-dispatch cost a preempted chip
    pays before it can serve again — the explicit price of killing a
    running batch, on top of the wasted service time itself.
    """

    tenants: Tuple[Tenant, ...]
    scheduler: str = "fifo"
    preemption: bool = False
    preemption_overhead_ns: float = 10_000.0  # 10 us re-dispatch cost

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ValueError("tenancy needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"available: {SCHEDULERS}"
            )
        if self.preemption_overhead_ns < 0:
            raise ValueError("preemption_overhead_ns must be non-negative")

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.tenants)

    def tenant(self, name: str) -> Tenant:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(f"unknown tenant {name!r}; have {self.names}")


def deadline_ns(tenant: Tenant, model: str, cluster) -> float:
    """The tenant's latency deadline for one model, in nanoseconds.

    An absolute ``deadline_ms`` wins; otherwise the SLO class's multiple
    of the model's batch-1 floor on its best hosting chip — the same
    anchor the default report SLO and the slo-aware shedder use, so
    scheduling, shedding and scoring agree on what "late" means.
    ``best-effort`` has no deadline (``inf``).
    """
    if tenant.deadline_ms is not None:
        return tenant.deadline_ms * 1e6
    multiple = tenant.slo.deadline_multiple
    if multiple is None:
        return math.inf
    return multiple * cluster.reference_latency_ns(model)


# -- dispatch schedulers -------------------------------------------------------------


class Scheduler:
    """Dispatch-order policy across per-(tenant, model) queues.

    The engine asks for a sort :meth:`key` per ready queue and dispatches
    the minimum; :meth:`on_dispatch` charges the chosen tenant for the
    batch's service time, and :meth:`on_activate` fires when an idle
    tenant's backlog goes 0 -> 1.  One scheduler instance serves one
    engine run (:meth:`reset` re-arms it), mirroring the admission-policy
    lifecycle.
    """

    name: str = "?"

    def reset(self, tenants: Sequence[Tenant]) -> None:
        """Re-arm per-run state; called once per engine run."""

    def key(self, tenant: str, oldest_arrival_ns: float, index: int) -> tuple:
        raise NotImplementedError

    def on_dispatch(self, tenant: str, service_ns: float) -> None:
        """Charge the tenant for one dispatched batch."""

    def on_activate(self, tenant: str) -> None:
        """The tenant's backlog just went from empty to non-empty."""


class FifoScheduler(Scheduler):
    """Globally oldest request first — tenant-blind, the legacy order.

    The constant leading key element makes the comparison collapse to
    ``(oldest_arrival_ns, index)``: exactly the pre-tenancy engine's
    FCFS-across-queues rule, which is what keeps the degenerate
    single-tenant configuration byte-identical to the goldens.
    """

    name = "fifo"

    def key(self, tenant: str, oldest_arrival_ns: float, index: int) -> tuple:
        return (0.0, oldest_arrival_ns, index)


class StrictPriorityScheduler(Scheduler):
    """Higher SLO class always dispatches first; FIFO within a class."""

    name = "strict-priority"

    def __init__(self) -> None:
        self._priority: Dict[str, int] = {}

    def reset(self, tenants: Sequence[Tenant]) -> None:
        self._priority = {t.name: t.slo.priority for t in tenants}

    def key(self, tenant: str, oldest_arrival_ns: float, index: int) -> tuple:
        return (float(self._priority.get(tenant, 0)), oldest_arrival_ns, index)


class WeightedFairScheduler(Scheduler):
    """Start-time fair queueing over tenants, at batch granularity.

    Each tenant ``t`` owns a virtual clock ``V_t`` (ns of normalized
    service).  Dispatching a batch of service time ``s`` advances
    ``V_t += s / w_t``; the ready queue whose tenant has the smallest
    clock wins (FIFO inside a tenant).  The global virtual clock ``V`` is
    the clock of the last tenant chosen, *before* its charge; a tenant
    activating from idle is clamped to ``V_t = max(V_t, V)`` so idle time
    banks no credit.  Over any backlogged interval tenants therefore
    receive service in proportion to their weights, within one batch of
    slack per tenant — the bound the noisy-neighbor suite exercises.
    """

    name = "weighted-fair"

    def __init__(self) -> None:
        self._weight: Dict[str, float] = {}
        self._vtime: Dict[str, float] = {}
        self._vclock = 0.0

    def reset(self, tenants: Sequence[Tenant]) -> None:
        self._weight = {t.name: t.weight for t in tenants}
        self._vtime = {t.name: 0.0 for t in tenants}
        self._vclock = 0.0

    def key(self, tenant: str, oldest_arrival_ns: float, index: int) -> tuple:
        return (self._vtime.get(tenant, 0.0), oldest_arrival_ns, index)

    def on_dispatch(self, tenant: str, service_ns: float) -> None:
        vtime = self._vtime.setdefault(tenant, 0.0)
        self._vclock = max(self._vclock, vtime)
        self._vtime[tenant] = vtime + service_ns / self._weight.get(tenant, 1.0)

    def on_activate(self, tenant: str) -> None:
        vtime = self._vtime.setdefault(tenant, 0.0)
        if vtime < self._vclock:
            self._vtime[tenant] = self._vclock

    @property
    def virtual_times(self) -> Dict[str, float]:
        """Snapshot of every tenant's virtual clock (for tests/benches)."""
        return dict(self._vtime)


def make_scheduler(name: str) -> Scheduler:
    """Build a scheduler by CLI name."""
    if name == "fifo":
        return FifoScheduler()
    if name == "strict-priority":
        return StrictPriorityScheduler()
    if name == "weighted-fair":
        return WeightedFairScheduler()
    raise ValueError(f"unknown scheduler {name!r}; available: {SCHEDULERS}")


# -- preemption accounting -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PreemptionRecord:
    """One killed batch: who lost the chip, when, and what it cost.

    ``wasted_ns`` is the service time the victim had already burned —
    work the cluster must redo — and ``batch_size`` how many requests
    went back to the front of their queue (arrival stamps intact, so the
    re-dispatch cost lands on their latency).
    """

    tenant: str
    model: str
    chip_id: int
    preempt_ns: float
    wasted_ns: float
    batch_size: int
    by_tenant: str  # the interactive tenant whose arrival pulled the trigger


# -- tenant trace construction -------------------------------------------------------


def tenant_traces(
    config: TenancyConfig,
    duration_s: float,
    seed: int,
    default_models: Sequence[str],
    native_seq_len: Mapping[str, int],
    max_context: Optional[int] = None,
) -> Tuple[TraceColumns, int]:
    """Build the merged, tenant-tagged arrival trace for one run.

    Each tenant's per-model sub-trace draws on its own lanes of
    :mod:`repro.seeds`; tenant 0's lanes are the untagged layout, so a
    single-tenant config reproduces the trace of the same
    ``ServingConfig`` without tenants bit for bit.  Returns
    the merged trace plus the largest sampled sequence length (0 when no
    tenant draws seqlens) for the caller's bucket derivation.
    """
    from repro.serve import open_loop_stream

    if duration_s <= 0:
        raise ValueError("duration must be positive")
    sub_traces: List[TraceColumns] = []
    max_sampled = 0
    for t_index, tenant in enumerate(config.tenants):
        models = tenant.models if tenant.models else tuple(default_models)
        if not models:
            raise ValueError(f"tenant {tenant.name!r} serves no models")
        per_model_rps = tenant.rps / len(models)
        for i, model in enumerate(models):
            sub, longest = open_loop_stream(
                tenant.trace_kind, model, per_model_rps, duration_s,
                seed, t_index, i,
                seqlen_dist=tenant.seqlen_dist,
                seqlen_mean=tenant.seqlen_mean,
                native_seq_len=native_seq_len.get(model, 0),
                max_context=max_context,
            )
            max_sampled = max(max_sampled, longest)
            sub_traces.append(with_tenant(sub, tenant.name))
    return merge_traces(*sub_traces), max_sampled


# -- CLI grammar ---------------------------------------------------------------------


def parse_tenants(spec: str) -> Tuple[Tenant, ...]:
    """Parse the ``--tenants`` grammar into :class:`Tenant` records.

    Comma-separated tenants; each is colon-separated with two positional
    fields then free-order options::

        NAME:CLASS[:w=W][:KIND@RPS][:model=M1+M2][:seqlen=DIST[@MEAN]]
                  [:rate=RPS[@BURST]][:deadline=MS]

    e.g. ``chat:interactive:w=4:poisson@200,bulk:batch:w=1:poisson@2000``
    or ``greedy:best-effort:bursty@5000:rate=1000``.  ``KIND@RPS`` names
    the arrival process (default ``poisson@1000``); ``rate=`` arms the
    tenant's admission token bucket at its *declared* rate — the contract
    the noisy-neighbor suite holds a 10x-misbehaving tenant to.
    """
    tenants: List[Tenant] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty tenant entry in --tenants spec")
        parts = [p.strip() for p in chunk.split(":")]
        if len(parts) < 2:
            raise ValueError(
                f"tenant {chunk!r} needs at least NAME:CLASS "
                f"(classes: {tuple(SLO_CLASSES)})"
            )
        name, slo_class = parts[0], parts[1]
        kwargs: Dict[str, object] = {}
        for part in parts[2:]:
            if not part:
                raise ValueError(f"empty option in tenant {chunk!r}")
            if part.startswith("w="):
                _put_once(kwargs, chunk, "weight", float(part[2:]))
            elif part.startswith("model="):
                _put_once(
                    kwargs, chunk, "models",
                    tuple(m for m in part[6:].split("+") if m),
                )
            elif part.startswith("seqlen="):
                value = part[len("seqlen="):]
                if "@" in value:
                    dist, mean = value.split("@", 1)
                    _put_once(kwargs, chunk, "seqlen_dist", dist)
                    kwargs["seqlen_mean"] = int(mean)
                else:
                    _put_once(kwargs, chunk, "seqlen_dist", value)
            elif part.startswith("rate="):
                value = part[len("rate="):]
                if "@" in value:
                    rate, burst = value.split("@", 1)
                    _put_once(kwargs, chunk, "rate_limit_rps", float(rate))
                    kwargs["rate_limit_burst"] = float(burst)
                else:
                    _put_once(kwargs, chunk, "rate_limit_rps", float(value))
            elif part.startswith("deadline="):
                _put_once(
                    kwargs, chunk, "deadline_ms",
                    float(part[len("deadline="):]),
                )
            elif "@" in part and "=" not in part:
                kind, rps = part.split("@", 1)
                _put_once(kwargs, chunk, "trace_kind", kind)
                kwargs["rps"] = float(rps)
            else:
                raise ValueError(
                    f"unknown option {part!r} in tenant {chunk!r}"
                )
        tenants.append(Tenant(name=name, slo_class=slo_class, **kwargs))
    if not tenants:
        raise ValueError("--tenants spec names no tenants")
    return tuple(tenants)


def _put_once(kwargs: Dict[str, object], chunk: str, key: str, value) -> None:
    if key in kwargs:
        raise ValueError(f"duplicate {key} option in tenant {chunk!r}")
    kwargs[key] = value
