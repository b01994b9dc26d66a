"""`ServingConfig`: the grouped, validated serving API.

A serving scenario is five groups of knobs:

* :class:`WorkloadConfig` — what traffic arrives (models, rates, traces,
  sequence lengths, closed-loop sessions, tenants);
* :class:`FleetConfig` — what serves it (chips, placement, routing,
  power envelope, autoscaling band);
* :class:`PolicyConfig` — how it is scheduled (batching, SLO, admission,
  tenant scheduling, preemption);
* :class:`ObserveConfig` — what is recorded (tracing, metrics export,
  live streaming reads, engine profiling);
* :class:`repro.serve.decode.DecodeConfig` — the autoregressive decode
  loop (optional);

assembled by :class:`ServingConfig` and run by
``simulate_serving(config)``, the one entry point.  Every banned
composition is one row of :data:`COMPOSITION_RULES`, evaluated by
:func:`check_composition` over whatever facts the caller knows:
:meth:`ServingConfig.validate` passes all of them, the ``ServingEngine``
constructor its arguments, and ``ServingEngine.run`` its clients — so an
invalid pairing raises the identical message no matter which door it
walks in through.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.serve.admission import AdmissionPolicy
from repro.serve.clients import RetryPolicy
from repro.serve.decode import DecodeConfig
from repro.serve.elastic import ElasticConfig
from repro.serve.fleet import FleetSpec
from repro.serve.power import PowerConfig
from repro.serve.streaming import StreamingMetrics
from repro.serve.tenancy import Tenant, TenancyConfig, parse_tenants
from repro.serve.traces import SEQLEN_DISTS

#: Routing policies the engine dispatch loop implements.  Lives here (not
#: in ``engine.py``) so the validation table can name the menu without a
#: circular import; ``repro.serve.engine`` re-exports it.
ROUTING_POLICIES = ("fastest", "cheapest-energy", "round-robin")


# -- grouped sub-configs -------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """What traffic arrives: models, rates, shapes, sessions, tenants.

    Offered load ``rps`` is split evenly across ``models``; each model's
    sub-trace draws from its own seeded stream, so adding a model never
    perturbs another's arrivals.  ``models`` is a sequence of names —
    ``("vit",)``, never the bare string ``"vit"``.

    ``seqlen_dist`` (one of :data:`~repro.serve.traces.SEQLEN_DISTS`)
    attaches a per-request sequence length to every transformer request,
    drawn around ``seqlen_mean`` (default: the model's native length) on
    its own lane of :mod:`repro.seeds`; CNN requests carry none.

    ``clients`` switches the run from an open-loop trace to a closed-loop
    population of that many sessions: each issues one request, blocks
    until it completes, thinks for ``think_time_ms`` (drawn from
    ``think_dist``) and issues the next, until the ``duration_s`` horizon.
    ``rps`` and ``trace_kind`` are then ignored.  ``retry`` (a
    :class:`~repro.serve.clients.RetryPolicy`, or an int shorthand for
    ``max_retries``) makes rejected sessions retry with backoff instead of
    dropping the request.

    ``tenants`` switches the run to multi-tenant serving — a sequence of
    :class:`~repro.serve.tenancy.Tenant` records or the CLI grammar
    string (see :func:`~repro.serve.tenancy.parse_tenants`).  Each tenant
    declares its own traffic mix, so the run-level ``rps`` /
    ``trace_kind`` / ``seqlen_dist`` / ``seqlen_mean`` are ignored.  The
    scheduler and preemption knobs are :class:`PolicyConfig`'s.  A
    single-tenant ``fifo`` configuration replays the untagged run byte
    for byte.
    """

    models: Sequence[str] = ()
    rps: float = 2000.0
    duration_s: float = 0.1
    trace_kind: str = "poisson"
    seed: int = 0
    seqlen_dist: Optional[str] = None
    seqlen_mean: Optional[int] = None
    clients: Optional[int] = None
    think_time_ms: float = 5.0
    think_dist: str = "exponential"
    retry: Optional[Union[int, RetryPolicy]] = None
    tenants: Optional[Union[str, Sequence[Tenant]]] = None

    def __post_init__(self) -> None:
        if isinstance(self.models, str):
            raise ValueError(
                f"models takes a sequence of model names, got the string "
                f"{self.models!r}; pass models=({self.models!r},)"
            )
        if isinstance(self.tenants, TenancyConfig):
            raise ValueError(
                "tenants takes the grammar string or a sequence of Tenant "
                "records, not a TenancyConfig; set the scheduler and "
                "preemption on PolicyConfig"
            )
        object.__setattr__(self, "models", tuple(self.models))


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """What serves it: chips, placement, routing, power, autoscaling.

    ``fleet`` names the chips that serve: a
    :class:`~repro.serve.fleet.FleetSpec` or its string form
    (``"yoco:4"``, ``"yoco:8,isaac:4:pipelined"``).  Each group carries
    its chip type, count and execution mode; ``n`` chips of one spec are
    :func:`~repro.serve.fleet.homogeneous_fleet`.  A run left at
    ``fleet=None`` raises :data:`MSG_NEED_FLEET`.  ``placement``
    assigns models to chips (:data:`~repro.serve.cluster.PLACEMENTS`);
    ``"prefill-decode"`` on a multi-group fleet pins prefill to group 0
    and decode to the rest.  ``routing`` picks which free hosting chip
    each batch dispatches to (:data:`ROUTING_POLICIES`).

    ``power`` runs the fleet under a
    :class:`~repro.serve.power.PowerConfig` envelope; with no cap and no
    thermal limit it only records the power trace and the simulation is
    float-for-float the power-blind one.  ``elastic`` (an
    :class:`~repro.serve.elastic.ElasticConfig`, or the CLI spec
    ``"MIN:MAX"``) grows and drains the active chip prefix mid-run; a
    static band spanning the whole fleet replays the inelastic run byte
    for byte.
    """

    fleet: Optional[Union[FleetSpec, str]] = None
    placement: str = "replicated"
    routing: str = "fastest"
    power: Optional[PowerConfig] = None
    elastic: Optional[Union[ElasticConfig, str]] = None


@dataclasses.dataclass(frozen=True)
class PolicyConfig:
    """How it is scheduled: batching, SLO, admission, tenancy knobs.

    ``seqlen_buckets`` sets the batcher's padding boundaries, and its
    largest boundary is the serving max context (longer samples clamp to
    it); by default power-of-two buckets covering the sampled lengths are
    derived whenever a sequence-length distribution is active.
    ``admission`` (an :class:`~repro.serve.admission.AdmissionPolicy` or
    its spec string, e.g. ``"queue-cap:64"``) gates every arrival;
    ``None``/``accept-all`` is the golden-guarded no-op.  ``scheduler``
    orders dispatch across tenant queues and ``preemption`` lets
    interactive arrivals evict running lower-priority batches at a
    ``preemption_overhead_ns`` re-dispatch cost; both need tenants.
    Tenants declaring a ``rate=`` limit are fronted by their own token
    buckets, composed with any cluster-wide ``admission``.
    """

    max_batch_size: int = 8
    window_ms: float = 0.2
    slo_ms: Optional[float] = None
    seqlen_buckets: Optional[Sequence[int]] = None
    admission: Optional[Union[str, AdmissionPolicy]] = None
    scheduler: str = "fifo"
    preemption: bool = False
    preemption_overhead_ns: float = 10_000.0

    def __post_init__(self) -> None:
        if self.seqlen_buckets is not None:
            buckets = tuple(int(b) for b in self.seqlen_buckets)
            object.__setattr__(self, "seqlen_buckets", buckets)


@dataclasses.dataclass(frozen=True)
class ObserveConfig:
    """What is recorded: tracing, metrics export, streaming, profiling.

    All of it is an exact pass-through: the result is object-for-object
    the unobserved one.  Asking for either file gives the run one
    :class:`~repro.serve.observe.EventLog`, which records every
    request-lifecycle event in order and renders it, chunk by chunk,
    into each file asked for.  ``trace_file`` gets the events as JSONL,
    or as Chrome ``trace_event`` JSON for ``.json`` paths.
    ``metrics_file`` gets throughput, queue depth, utilization and
    power sampled every ``metrics_window_ms``, as CSV (JSON for
    ``.json``).  ``profile_engine`` counts the event loop's own work on
    ``result.stats.profile``.

    ``stream_metrics`` (a fresh
    :class:`~repro.serve.streaming.StreamingMetrics`) reads the run's
    served record live — a rolling p99 and, with ``progress_every``,
    progress lines.  The record is the same columnar ``result.served``
    every run lands in, so the streamed result and report equal the
    unstreamed ones exactly, decode runs included.
    """

    stream_metrics: Optional[StreamingMetrics] = None
    trace_file: Optional[str] = None
    metrics_file: Optional[str] = None
    metrics_window_ms: float = 1.0
    profile_engine: bool = False


# -- the composition-rule table ------------------------------------------------------
#: Exact messages of every banned composition, importable so tests assert
#: the one canonical wording.
MSG_NEED_MODELS = "need at least one model to serve"
MSG_CLIENTS_MIN = "clients must be >= 1 (None for open-loop traces)"
MSG_RETRY_OPEN_LOOP = (
    "retry-with-backoff needs closed-loop clients; open-loop rejections "
    "always drop"
)
MSG_TENANTS_CLIENTS = (
    "multi-tenant serving is open-loop; it cannot combine with "
    "closed-loop clients"
)
MSG_SCHEDULER_NEEDS_TENANTS = (
    "scheduler/preemption knobs need a multi-tenant run; pass tenants="
)
MSG_PREEMPT_POWER = (
    "preemption cannot run under a power governor: admitted batches draw "
    "power through to their completion instant and the governor has no "
    "cancellation edge"
)
MSG_PREEMPT_ELASTIC = (
    "preemption cannot run on an elastic fleet: the deadline probe reads "
    "every hosting chip's natural free instant, and a parked chip would "
    "look permanently free to it"
)
MSG_DECODE_TENANTS = (
    "autoregressive decode is single-workload for now: tenant queues "
    "carry no decode lanes; pass tenants= or decode=, not both"
)
MSG_DECODE_CLIENTS = (
    "autoregressive decode is open-loop for now: closed-loop sessions "
    "block on whole responses, not tokens; pass an open-loop trace "
    "instead of clients="
)
MSG_DECODE_ELASTIC = (
    "autoregressive decode cannot run on an elastic fleet: decode "
    "batches re-form every iteration and a draining chip would strand "
    "half-decoded requests"
)
MSG_PD_NEEDS_DECODE = (
    "the prefill-decode placement specializes chip groups for a decode "
    "loop; pass decode= (--decode-dist) as well"
)
# The next two are raised by ``Cluster``, the one place that resolves
# the fleet.
MSG_NEED_FLEET = (
    "a cluster needs a fleet: a FleetSpec or a fleet string such as "
    "'yoco:4' (n chips of one spec: homogeneous_fleet(spec, n, mode))"
)
MSG_PD_NEEDS_GROUPS = (
    "the prefill-decode placement pins prefill and decode to different "
    "chip groups; pass a multi-group fleet (e.g. --fleet yoco:4,isaac:4)"
)


def msg_unknown_routing(routing: str) -> str:
    return f"unknown routing {routing!r}; available: {ROUTING_POLICIES}"


def msg_unknown_seqlen_dist(dist: str) -> str:
    return f"unknown seqlen dist {dist!r}; available: {SEQLEN_DISTS}"


def _resolved_tenancy(
    tenants: Optional[Union[str, Sequence[Tenant]]],
    policy: PolicyConfig,
) -> Optional[TenancyConfig]:
    """Coerce the tenants knob into a TenancyConfig (None passes through)."""
    if tenants is None:
        return None
    tenant_tuple = (
        parse_tenants(tenants) if isinstance(tenants, str) else tuple(tenants)
    )
    return TenancyConfig(
        tenant_tuple,
        scheduler=policy.scheduler,
        preemption=policy.preemption,
        preemption_overhead_ns=policy.preemption_overhead_ns,
    )


#: The single ordered table of banned compositions.  Each row is a
#: function of the named facts it reads that returns the canonical error
#: message when violated (None when fine).  The facts: ``models``,
#: ``seqlen_dist``, ``clients`` (session count or None), ``retry``,
#: ``tenants``, ``scheduler`` and ``preemption`` (the policy knobs),
#: ``preempting`` (tenancy with preemption on), ``routing``, ``power``,
#: ``elastic``, ``decode`` and ``placement``.
COMPOSITION_RULES: Tuple[Callable[..., Optional[str]], ...] = (
    lambda models: None if models else MSG_NEED_MODELS,
    lambda seqlen_dist: (
        msg_unknown_seqlen_dist(seqlen_dist)
        if seqlen_dist is not None and seqlen_dist not in SEQLEN_DISTS
        else None
    ),
    lambda clients: (
        MSG_CLIENTS_MIN if clients is not None and clients < 1 else None
    ),
    lambda retry, clients: (
        MSG_RETRY_OPEN_LOOP if retry is not None and clients is None else None
    ),
    lambda tenants, clients: (
        MSG_TENANTS_CLIENTS
        if tenants is not None and clients is not None
        else None
    ),
    lambda tenants, scheduler, preemption: (
        MSG_SCHEDULER_NEEDS_TENANTS
        if tenants is None and (scheduler != "fifo" or preemption)
        else None
    ),
    lambda routing: (
        msg_unknown_routing(routing)
        if routing not in ROUTING_POLICIES
        else None
    ),
    lambda preempting, power: (
        MSG_PREEMPT_POWER if preempting and power is not None else None
    ),
    lambda preempting, elastic: (
        MSG_PREEMPT_ELASTIC if preempting and elastic is not None else None
    ),
    lambda decode, tenants: (
        MSG_DECODE_TENANTS
        if decode is not None and tenants is not None
        else None
    ),
    lambda decode, clients: (
        MSG_DECODE_CLIENTS
        if decode is not None and clients is not None
        else None
    ),
    lambda decode, elastic: (
        MSG_DECODE_ELASTIC
        if decode is not None and elastic is not None
        else None
    ),
    lambda placement, decode: (
        MSG_PD_NEEDS_DECODE
        if placement == "prefill-decode" and decode is None
        else None
    ),
)

#: The fact names each row reads (its parameter names).
_READS = tuple(
    rule.__code__.co_varnames[: rule.__code__.co_argcount]
    for rule in COMPOSITION_RULES
)


def check_composition(**facts) -> None:
    """Raise the first violated row among those whose facts are all given."""
    for rule, reads in zip(COMPOSITION_RULES, _READS):
        if all(name in facts for name in reads):
            message = rule(*(facts[name] for name in reads))
            if message is not None:
                raise ValueError(message)


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """One validated serving scenario: workload x fleet x policy x observe.

    ``decode`` (a :class:`~repro.serve.decode.DecodeConfig`) turns every
    transformer request autoregressive under continuous batching, and the
    report gains TTFT and inter-token-latency percentiles; ``None`` replays
    the decode-free run byte for byte.  :meth:`validate` applies
    :data:`COMPOSITION_RULES` and returns ``self`` so call sites can chain
    ``ServingConfig(...).validate()``.
    """

    workload: WorkloadConfig
    fleet: FleetConfig = FleetConfig()
    policy: PolicyConfig = PolicyConfig()
    observe: ObserveConfig = ObserveConfig()
    decode: Optional[DecodeConfig] = None

    def validate(self) -> "ServingConfig":
        """Apply every composition rule; raise the first violation."""
        w, f, p = self.workload, self.fleet, self.policy
        check_composition(
            models=w.models,
            seqlen_dist=w.seqlen_dist,
            clients=w.clients,
            retry=w.retry,
            tenants=w.tenants,
            scheduler=p.scheduler,
            preemption=p.preemption,
            preempting=w.tenants is not None and p.preemption,
            routing=f.routing,
            power=f.power,
            elastic=f.elastic,
            decode=self.decode,
            placement=f.placement,
        )
        # Tenant model declarations must name served models (needs the
        # parsed tenancy, so it sits after the table proper).
        tenancy = _resolved_tenancy(w.tenants, p)
        if tenancy is not None:
            for tenant in tenancy.tenants:
                unknown = [m for m in tenant.models if m not in w.models]
                if unknown:
                    raise ValueError(
                        f"tenant {tenant.name!r} calls {unknown} but the "
                        f"run serves {list(w.models)}"
                    )
        return self
