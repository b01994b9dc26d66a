"""Deterministic discrete-event serving loop.

Drives a request trace through per-model queues, the dynamic batcher and
the cluster's chips.  Four event kinds exist — batch completion, request
arrival, batching-window expiry and elastic scaling — kept in one
time-ordered heap with a monotonic sequence number as the final
tiebreak, so two runs over the same (trace, cluster, policy) produce
bit-identical results.  There is no wall-clock anywhere: all randomness
lives in the trace generators and the closed-loop client streams.

Work waits in **dispatch slots**: one batching queue per (tenant, model)
pair and, with an autoregressive decode loop, one decode FIFO per model.
What waits is a **row**: an int index into the run's request columns
(the trace's rows, then one appended row per closed-loop issue; a retry
re-enters on its own row).  Slot queues, in-flight batches, decode
entries, log events and the served record all carry rows, and a
:class:`~repro.serve.traces.Request` object is built only for a request
rejected for good.  Every slot dispatches onto a **host set** — one
flat cost table (:class:`~repro.serve.cluster.ServiceCostTable`), whose
``hosts`` are the chips that may serve it, plus a free-host count and a
round-robin cursor.  The free-chip index, the dirty-slot scan, the
router and the launch step read host sets only, so prefill batches and
decode iterations share one dispatch mechanism; each phase supplies just
its batch of rows and its routing key.

Two traffic sources feed the loop:

* **open-loop traces** (:meth:`ServingEngine.run` with a request
  sequence) — arrivals are fixed in advance;
* **closed-loop clients** (``clients=`` with a
  :class:`repro.serve.clients.ClientPopulation`) — every batch completion
  feeds back to its sessions, which think and then issue their next
  request, so offered load responds to cluster state.

An :class:`repro.serve.admission.AdmissionPolicy` sits in front of the
queues in either mode: rejected requests drop (open loop) or go back to
their session for retry-with-backoff (closed loop), and land on
:attr:`ServingResult.rejected` instead of :attr:`ServingResult.served`.
With ``admission=None`` — or the explicit :class:`AcceptAll` — the loop
is byte-for-byte the admission-free engine (golden-guarded).

A :class:`repro.serve.tenancy.TenancyConfig` splits the queues per
(tenant, model) pair, hands dispatch ordering to a pluggable
:class:`~repro.serve.tenancy.Scheduler`, and optionally arms preemption:
an interactive arrival that would miss its deadline may kill the most
recently dispatched lower-priority batch on a hosting chip, requeue its
requests at the front of their queue, and take the chip after an explicit
re-dispatch overhead.  Without a tenancy config — or with the degenerate
single-tenant ``fifo`` one — the loop is byte-for-byte the tenant-blind
engine (golden-guarded by ``tests/test_tenancy_differential.py``).

A single plain slot on a uniform host set skips the event loop for a
per-batch walk (:meth:`ServingEngine._run_turbo`), bit-identical to it.
Both loops land every completion in one columnar record,
:class:`~repro.serve.served.ServedColumns`; streaming only reads it.
The walk returns what it produced, and both loops end in one epilogue
in :meth:`ServingEngine.run`: stats, log close, the final record.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import math
from collections import deque

import numpy as np
from typing import (
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.serve.admission import AdmissionPolicy, parse_admission
from repro.serve.batching import BatchingPolicy, ModelQueue, bucket_for
from repro.serve.clients import ClientPopulation, ClosedLoopDriver
from repro.serve.cluster import ChipService, Cluster
from repro.serve.config import check_composition
from repro.serve.decode import DecodeConfig
from repro.serve.elastic import (
    ElasticConfig,
    ElasticController,
    ElasticTrace,
    ScalingAction,
)
from repro.serve.observe import (  # event kind codes and their log
    ARR, CMP, DIT, DSP, ENQ, POWER, PRE, REJ, SCALE, THROTTLE,
    EventLog,
)
from repro.serve.power import PowerConfig, PowerGovernor, PowerTrace
from repro.serve.served import ServedColumns, grow, ordered_sum
from repro.serve.streaming import StreamingMetrics
from repro.serve.tenancy import (
    FifoScheduler,
    PreemptionRecord,
    TenancyConfig,
    deadline_ns,
    make_scheduler,
)
from repro.serve.traces import Request, TraceColumns, as_columns


#: Event kinds, in same-timestamp processing order: completions free chips
#: before new arrivals queue, which beat stale window timers, which beat
#: elastic-controller evaluations/activations (scaling decisions observe
#: the instant's fully settled state).
_COMPLETION, _ARRIVAL, _WINDOW, _SCALE = 0, 1, 2, 3


@dataclasses.dataclass(frozen=True)
class RejectedRequest:
    """One request admission control turned away for good.

    ``reject_ns`` is the instant of the *final* rejection and
    ``attempts`` how many admission attempts were made in total (1 = shed
    on first contact; more means retry-with-backoff ran out).  Requests
    that were rejected, retried and eventually served appear on
    :attr:`ServingResult.served`, not here.
    """

    request: Request
    reject_ns: float
    attempts: int = 1


@dataclasses.dataclass
class _InFlight:
    """One batch currently occupying a chip (a completion-event payload).

    All accounting floats are computed at dispatch time and carried here,
    so moving the bookkeeping to the completion event changes no value —
    only *when* it lands in the result (which is what lets preemption
    cancel a batch before its accounting ever happens).  ``busy_ns`` is
    the chip occupancy to charge on completion: the service time, plus
    the re-dispatch overhead when the batch was dispatched onto a freshly
    preempted chip.
    """

    __slots__ = ("key", "slot", "rows", "chip_id", "dispatch_ns", "finish_ns",
                 "busy_ns", "share_pj", "padded")
    key: int  # unique id; tombstoned in the engine's cancelled set
    slot: int  # the (tenant, model) slot the batch was popped from
    rows: List[int]  # its requests, as rows of the run's columns
    chip_id: int
    dispatch_ns: float
    finish_ns: float
    busy_ns: float
    share_pj: float  # per-request energy share
    padded: int


class _DecodeEntry:
    """One prefilled request working through its decode loop.

    Mutable on purpose: the entry hops between the per-model decode FIFO
    and the in-flight decode batch once per generated token, accumulating
    context length, energy and KV traffic as it goes.  ``ctx`` is the
    current context (prompt + generated so far) the *next* iteration runs
    at; ``remaining`` counts down from the sampled output length.
    ``prefill`` is the completed prefill batch: its dispatch, size and
    padded length stamp the served record, its finish the first token.
    ``row`` is the request's row in the run's columns.
    """

    __slots__ = (
        "row", "ctx", "remaining", "energy_pj", "kv_bytes",
        "kv_overflow", "prefill",
    )

    def __init__(
        self, row: int, tokens: int, ctx: int, prefill: "_InFlight"
    ) -> None:
        self.row = row
        self.ctx = ctx
        self.remaining = tokens
        self.energy_pj = prefill.share_pj
        self.kv_bytes = 0.0
        self.kv_overflow = 0.0
        self.prefill = prefill


class _DecodeInFlight(NamedTuple):
    """One decode iteration occupying a chip (a completion-event payload).

    ``footprints`` carries each member's paged KV footprint for the
    iteration (the per-entry share key for the batch's ``overflow``
    bytes); all floats were fixed at dispatch, exactly like
    :class:`_InFlight`; an iteration completed in place is a plain tuple
    of the same fields (``dispatch_decode``).  ``life`` counts the
    further iterations whose members all stay on their KV pages, before
    one finishes or crosses a page; while no request joins, a kept chip
    reuses the record (members, footprints, ``cost``, ``ctx_pad``,
    ``total_kv``, ``overflow``, share) that long.
    """

    finish_ns: float
    chip_id: int
    model_index: int
    entries: List[_DecodeEntry]
    footprints: List[float]
    busy_ns: float
    share_pj: float  # per-request energy share of the iteration
    total_kv: float
    overflow: float  # KV bytes past on-chip capacity, streamed off-chip
    cost: ChipService
    ctx_pad: int
    life: int


@dataclasses.dataclass(frozen=True)
class EngineProfile:
    """Self-profile of one run (``ServingEngine(profile=True)``).

    Deterministic like every :class:`EngineStats` counter — no wall
    clock — so a profile diff between two commits is a real hot-path
    diff, not noise.  ``events_by_kind`` splits ``n_events``, derived
    from the run's counts: a completion per batch or decode iteration,
    an arrival per request row or retry, the counted scale events, and
    window timers as the remainder.  ``dispatch_scan_hist`` maps
    dirty-set size to how many scan rounds saw it (an every-slot scan
    shows up here as a fat tail); ``heap_peak`` is the high-water mark
    of scheduled events (the pending slot included) observed at pops.
    """

    events_by_kind: Tuple[Tuple[str, int], ...]
    dispatch_scan_hist: Tuple[Tuple[int, int], ...]
    heap_peak: int


@dataclasses.dataclass(frozen=True)
class EngineStats:
    """Hot-path instrumentation of one :meth:`ServingEngine.run`.

    Deterministic work counters (no wall clock anywhere), read as
    :attr:`ServingResult.stats` — a non-comparing field, so result
    equality and the golden digests are untouched.  The scaling
    guard-rail tests read ``n_slot_scans``: the total number of (tenant,
    model) slot examinations the dispatch scan performed — the dirty
    slots on a round's first pass, then only the previous pass's
    candidates — the quantity that used to grow as events x slots and
    must now grow linearly with the event count.  A decode iteration
    relaunched on a kept chip counts the scan it skipped, and one
    completed in place counts its event (its pop would see the heap
    unchanged), so every counter (and the profile) is the same as on
    the per-iteration path.  ``profile``
    carries the per-event-kind breakdown when the engine ran with
    ``profile=True`` (``--profile-engine``).
    """

    n_events: int  # heap, cursor and pending-slot events (arrivals incl.)
    n_dispatch_rounds: int  # dispatch invocations that examined >= 1 slot
    n_slot_scans: int  # slot examinations across all dispatch rounds
    n_batches: int
    profile: Optional[EngineProfile] = None


@dataclasses.dataclass(frozen=True)
class ServingResult:
    """Everything one simulation run produced.

    ``power`` carries the governor's per-group power/thermal trace when
    the run simulated one (:class:`repro.serve.power.PowerConfig` passed
    to the engine); ``None`` on the legacy power-blind path.  ``rejected``
    / ``n_rejections`` account for admission control (empty/0 without a
    shedding policy) and ``clients`` echoes the closed-loop population
    when the run was client-driven (``None`` = open loop).  ``scheduler``
    / ``tenants`` / ``preempted`` echo the multi-tenant contract when one
    ran (``scheduler is None`` = the tenant-blind legacy path).

    ``served`` is the run's one :class:`~repro.serve.served.ServedColumns`
    record, streamed or not; it reads as a ``Sequence[ServedRequest]``.
    """

    served: ServedColumns
    n_chips: int
    chip_busy_ns: Tuple[float, ...]
    makespan_ns: float  # first arrival epoch (t=0) to last batch completion
    n_batches: int
    policy: BatchingPolicy
    power: Optional[PowerTrace] = None
    rejected: Tuple[RejectedRequest, ...] = ()
    n_rejections: int = 0  # every reject event, retried-then-served included
    admission: Optional[str] = None  # policy name; None = no admission layer
    clients: Optional[ClientPopulation] = None
    scheduler: Optional[str] = None  # dispatch scheduler; None = no tenancy
    tenants: Tuple[str, ...] = ()  # declared tenant names, config order
    preempted: Tuple[PreemptionRecord, ...] = ()
    #: Scaling history when the run was elastic
    #: (:class:`repro.serve.elastic.ElasticConfig` passed to the engine);
    #: ``None`` on the fixed-fleet path, *including* the degenerate
    #: full-fleet static config, which is a provable no-op.
    elastic: Optional[ElasticTrace] = None
    #: The run's :class:`EngineStats` (always populated by the engine;
    #: ``None`` only on hand-built results).  Non-comparing: two runs
    #: that served identically are equal even if one was profiled or
    #: observed — the observability contract the differential suite
    #: pins.
    stats: Optional[EngineStats] = dataclasses.field(
        default=None, compare=False
    )
    #: Autoregressive-decode roll-ups: iterations dispatched, tokens
    #: generated, total paged KV bytes the decode loop touched and the
    #: part of them that overflowed off-chip.  All 0 when the run had no
    #: decode loop (``decode=None``), so legacy results are unchanged.
    n_decode_iters: int = 0
    n_decode_tokens: int = 0
    kv_bytes: float = 0.0
    kv_overflow_bytes: float = 0.0

    @property
    def n_requests(self) -> int:
        return len(self.served)

    @property
    def n_dropped(self) -> int:
        """Requests admission turned away for good (never served)."""
        return len(self.rejected)

    @property
    def n_offered(self) -> int:
        """Distinct requests that reached the front door (served + dropped)."""
        return self.n_requests + len(self.rejected)

    @property
    def rejection_rate(self) -> float:
        """Dropped fraction of offered requests (0.0 on an empty run)."""
        offered = self.n_offered
        if offered == 0:
            return 0.0
        return len(self.rejected) / offered

    @property
    def n_retries(self) -> int:
        """Rejections that were resubmitted rather than dropped.

        Every reject event either schedules a retry or drops the request
        for good, so the two counters partition ``n_rejections``.
        """
        return self.n_rejections - len(self.rejected)

    @property
    def n_clients(self) -> int:
        """Closed-loop session count (0 = open-loop trace)."""
        return self.clients.n_clients if self.clients is not None else 0

    @functools.cached_property
    def total_energy_pj(self) -> float:
        return ordered_sum(self.served.column("energy_pj"))

    @property
    def has_seqlens(self) -> bool:
        """Did any request carry an explicit per-request sequence length?"""
        return bool(self.served.requests.seq_len.any())

    @functools.cached_property
    def total_tokens(self) -> int:
        """Real tokens served (0 for native-shape traffic)."""
        return int(self.served.requests.seq_len.sum())

    @functools.cached_property
    def total_padded_tokens(self) -> int:
        """Tokens the chips processed, padding included."""
        return int(self.served.column("padded_seq_len").sum())

    @property
    def padding_overhead(self) -> float:
        """Wasted fraction of processed tokens across the whole run."""
        padded = self.total_padded_tokens
        if padded == 0:
            return 0.0
        return (padded - self.total_tokens) / padded

    @property
    def mean_batch_size(self) -> float:
        if self.n_batches == 0:
            return 0.0
        return self.n_requests / self.n_batches

    @property
    def chip_utilization(self) -> Tuple[float, ...]:
        """Busy fraction of each chip over the makespan."""
        if self.makespan_ns <= 0:
            return tuple(0.0 for _ in self.chip_busy_ns)
        return tuple(b / self.makespan_ns for b in self.chip_busy_ns)

    def for_model(self, model: str) -> ServedColumns:
        return self.served.select(model=model)

    @functools.cached_property
    def models(self) -> Tuple[str, ...]:
        """Served models, in order of first (arrival-sorted) appearance."""
        req = self.served.requests
        codes, first = np.unique(req.model_code, return_index=True)
        return tuple(req.model_names[c] for c in codes[np.argsort(first)])

    @property
    def has_decode(self) -> bool:
        """Did the run generate tokens through a decode loop?"""
        return self.n_decode_tokens > 0

    @property
    def kv_overflow(self) -> float:
        """Off-chip fraction of the decode loop's KV traffic (0 = all resident)."""
        if self.kv_bytes <= 0:
            return 0.0
        return self.kv_overflow_bytes / self.kv_bytes

    @property
    def n_preemptions(self) -> int:
        """Batches killed mid-service by a latency-critical arrival."""
        return len(self.preempted)

    @property
    def preempted_wasted_ns(self) -> float:
        """Service time burned by preempted batches (work the cluster redid)."""
        return sum(p.wasted_ns for p in self.preempted)

    def for_tenant(self, tenant: str) -> ServedColumns:
        return self.served.select(tenant=tenant)

    def rejected_for_tenant(self, tenant: str) -> Tuple[RejectedRequest, ...]:
        return tuple(
            r for r in self.rejected if r.request.tenant == tenant
        )


def _check_request(
    request: Request,
    cluster: Cluster,
    tenancy: Optional[TenancyConfig],
    decode_cfg: Optional[DecodeConfig],
) -> None:
    """Raise the input error for one trace request the engine cannot serve."""
    known = cluster.models
    if request.model not in known:
        raise ValueError(
            f"trace request for {request.model!r} but cluster hosts {sorted(known)}"
        )
    if tenancy is not None and request.tenant not in tenancy.names:
        raise ValueError(
            f"trace request tagged {request.tenant!r} but the "
            f"tenancy config declares {tenancy.names}"
        )
    if request.decode_tokens:
        if decode_cfg is None:
            raise ValueError(
                "trace request carries decode_tokens but the "
                "engine has no decode loop; pass decode= (a "
                "DecodeConfig)"
            )
        if cluster.native_seq_len(request.model) == 0:
            raise ValueError(
                f"decode request for {request.model!r} but the "
                "workload has no token axis; autoregressive "
                "decode needs a transformer workload"
            )


class ServingEngine:
    """Run request traces against a :class:`Cluster` under one policy.

    ``routing`` picks which free hosting chip a ready batch dispatches to
    (one of :data:`repro.serve.config.ROUTING_POLICIES`); it decides
    *where* work runs, never whether it runs, so for a fixed trace every
    policy serves exactly the same requests — only their latency and
    energy differ.

    ``power`` runs the whole simulation under a
    :class:`repro.serve.power.PowerConfig` envelope: every event advances
    the per-group power/thermal integration, every dispatched batch asks
    the governor for its *effective* (possibly throttle-stretched) service
    time, and the cost-aware routing policies price batches at the
    throttled latency of a hot group.  An unconstrained config (no cap, no
    thermal limit) only records the power trace — every slowdown factor is
    exactly 1.0 and the simulation is float-for-float identical to the
    power-blind path.

    ``admission`` gates every arrival before it touches a queue (an
    :class:`~repro.serve.admission.AdmissionPolicy` instance or its CLI
    spec string, e.g. ``"queue-cap:64"``).  ``None`` — and the explicit
    ``accept-all`` policy — leave the simulation byte-for-byte identical
    to the pre-admission engine.

    ``tenancy`` turns on multi-tenant serving
    (:class:`repro.serve.tenancy.TenancyConfig`): per-(tenant, model)
    queues, a pluggable dispatch scheduler, and optional deadline-driven
    preemption.  Every trace request must then carry a declared tenant
    tag.  Preemption cannot run under a power governor: the governor
    integrates each admitted batch's power draw through to its completion
    instant and has no cancellation edge, so a killed batch would keep
    drawing phantom power — the combination is rejected at construction.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: BatchingPolicy = BatchingPolicy(),
        routing: str = "fastest",
        power: Optional[PowerConfig] = None,
        admission: Optional[Union[str, AdmissionPolicy]] = None,
        tenancy: Optional[TenancyConfig] = None,
        elastic: Optional[ElasticConfig] = None,
        profile: bool = False,
        decode: Optional[DecodeConfig] = None,
    ) -> None:
        # Every banned composition raises out of the one rule table in
        # repro.serve.config, so the direct-construction door and the
        # ServingConfig door produce identical messages.
        check_composition(
            routing=routing,
            preempting=tenancy is not None and tenancy.preemption,
            power=power,
            elastic=elastic,
            decode=decode,
            tenants=tenancy,
            placement=cluster.placement,
        )
        if isinstance(admission, str):
            admission = parse_admission(admission)
        if elastic is not None:
            # Fail early on a band the fleet cannot satisfy (max_chips of
            # None resolves at run time against the actual fleet size).
            elastic.resolve(cluster.n_chips)
        self._cluster = cluster
        self._policy = policy
        self._routing = routing
        self._power = power
        self._admission = admission
        self._tenancy = tenancy
        self._elastic = elastic
        self._decode = decode
        #: Collect the per-event-kind :class:`EngineProfile` during runs
        #: (``--profile-engine``); off by default — the hot loop then
        #: pays nothing beyond one falsy branch per event.
        self._profile = profile

    def run(
        self,
        trace: Sequence[Request] = (),
        clients: Optional[ClientPopulation] = None,
        stream: Optional[StreamingMetrics] = None,
        log: Optional[EventLog] = None,
    ) -> ServingResult:
        """Simulate the whole trace to completion (closed horizon).

        Pass either an open-loop ``trace`` *or* a closed-loop ``clients``
        population (whose sessions then generate arrivals in response to
        completions), never both.

        Completions land in one columnar record,
        :attr:`ServingResult.served`, on every run.  ``stream`` attaches a
        :class:`repro.serve.streaming.StreamingMetrics` that reads that
        record live (rolling p99, progress lines); like ``log`` it is
        an exact pass-through, so the streamed result equals the
        unstreamed one.

        ``log`` (a :class:`repro.serve.observe.EventLog`) receives every
        lifecycle event of the run, in event order, on both the general
        and turbo loops, and is closed with the makespan; its renderers
        write the trace and metrics files.  Logging only reads engine
        state, so the result with a log is object-for-object the result
        without one.
        """
        cluster, policy = self._cluster, self._policy
        # Turn the input into columns exactly once.  A generator trace is
        # materialized here (iterating it twice once validated fine and
        # then simulated zero requests); a Request sequence is copied into
        # columns.
        cols = as_columns(trace)
        if clients is not None and len(cols):
            raise ValueError(
                "pass an open-loop trace or a closed-loop client "
                "population, not both"
            )
        decode_cfg, tenancy = self._decode, self._tenancy
        check_composition(
            clients=None if clients is None else clients.n_clients,
            tenants=tenancy,
            decode=decode_cfg,
        )
        driver: Optional[ClosedLoopDriver] = None
        if clients is not None:
            unknown = [m for m in clients.models if m not in cluster.models]
            if unknown:
                raise ValueError(
                    f"client population serves {unknown} but cluster hosts "
                    f"{sorted(cluster.models)}"
                )
            driver = ClosedLoopDriver(
                clients,
                {m: cluster.native_seq_len(m) for m in clients.models},
            )
            cols = as_columns(driver.start())
        admission = self._admission
        if admission is not None:
            admission.reset(cluster, policy)
        governor = (
            PowerGovernor(cluster, self._power)
            if self._power is not None
            else None
        )
        # Routing consults the governor only when an envelope actually
        # binds: an unconstrained governor traces power but must leave
        # every routing key — including the cheapest-energy tie-break —
        # exactly as the power-blind path computes it.
        throttler = (
            governor
            if governor is not None and self._power.constrained
            else None
        )
        known = set(cluster.models)
        # Column checks: flag every request the per-request checks of
        # _check_request would reject, then let the first flagged one
        # raise, so the message and the offender are the scalar ones.
        flagged = ~np.array(
            [m in known for m in cols.model_names], dtype=bool
        )[cols.model_code]
        if tenancy is not None:
            flagged |= ~np.array(
                [t in tenancy.names for t in cols.tenant_names], dtype=bool
            )[cols.tenant_code]
        decoding = cols.decode_tokens != 0
        if decode_cfg is None:
            flagged |= decoding
        else:
            flagged |= decoding & np.array(
                [
                    m in known and cluster.native_seq_len(m) == 0
                    for m in cols.model_names
                ],
                dtype=bool,
            )[cols.model_code]
        if flagged.any():
            _check_request(cols[int(flagged.argmax())], cluster, tenancy, decode_cfg)
        has_seqlens = bool(cols.seq_len.any())
        arrival = cols.arrival_ns
        if (arrival[1:] < arrival[:-1]).any():
            # The merged arrival cursor needs time order.  A *stable* sort
            # by arrival reproduces the old heap's (arrival, push-order)
            # ordering exactly, so out-of-order traces replay bit-for-bit.
            cols = cols.take(np.argsort(arrival, kind="stable"))
        buckets = policy.seqlen_buckets
        if buckets:
            # The first (time-ordered) request past the largest bucket
            # fails the run before anything is simulated.
            over = cols.seq_len > buckets[-1]
            if over.any():
                bucket_for(int(cols.seq_len[over.argmax()]), buckets)
        elastic_cfg = self._elastic
        el_lo = el_hi = el_init = 0
        if elastic_cfg is not None:
            el_lo, el_hi, el_init = elastic_cfg.resolve(cluster.n_chips)
            if el_lo == cluster.n_chips:
                # Full-fleet static band: no chip can ever join or leave,
                # so the config is a provable no-op — drop straight onto
                # the inelastic path (turbo included), byte for byte.
                elastic_cfg = None
            else:
                # The active set is always the id prefix [0, n_active)
                # with n_active >= min_chips, so every model must keep a
                # hosting chip inside the permanent prefix — otherwise a
                # scale-down could orphan its queue forever.
                for m in cluster.models:
                    if min(cluster.chips_for(m)) >= el_lo:
                        raise ValueError(
                            f"model {m!r} has no hosting chip below "
                            f"min_chips={el_lo}; an elastic scale-down "
                            "would leave its queue unserviceable"
                        )

        def epilogue(
            record, chip_busy, makespan, counts, scan_sizes, heap_peak,
            n_rows, rejected=(), n_rejections=0, n_scale=0,
            n_decode_iters=0, **result,
        ) -> ServingResult:
            """The one run epilogue both loops end in.  ``counts`` are the
            walk's (events, dispatch rounds, slot scans, batches) and
            ``n_rows`` its request rows; see :class:`EngineProfile` for
            how the event kinds are derived from them."""
            n_events, _, _, n_batches = counts
            profile = None
            if self._profile:
                done = n_batches + n_decode_iters
                arrived = n_rows + n_rejections - len(rejected)
                windows = n_events - done - arrived - n_scale
                profile = EngineProfile(
                    (("completion", done), ("arrival", arrived),
                     ("window", windows), ("scale", n_scale)),
                    tuple(sorted(scan_sizes.items())), heap_peak,
                )
            if log is not None:
                log.close(makespan)
            served = record(ordered=True)
            # Every row lands once or is rejected for good.
            leftover = n_rows - len(served) - len(rejected)
            if leftover:
                raise RuntimeError(f"{leftover} requests never dispatched")
            if stream is not None:
                stream._end_run(served)
            return ServingResult(
                served=served,
                n_chips=cluster.n_chips,
                chip_busy_ns=tuple(chip_busy),
                makespan_ns=makespan,
                n_batches=n_batches,
                policy=policy,
                rejected=tuple(rejected),
                n_rejections=n_rejections,
                admission=admission.name if admission is not None else None,
                clients=clients,
                scheduler=tenancy.scheduler if tenancy is not None else None,
                tenants=tenancy.names if tenancy is not None else (),
                stats=EngineStats(*counts, profile),
                n_decode_iters=n_decode_iters,
                # Every decode request lands with all its tokens generated.
                n_decode_tokens=int(served.requests.decode_tokens.sum()),
                **result,
            )

        if (
            elastic_cfg is None
            and decode_cfg is None
            and driver is None
            and tenancy is None
            and admission is None
            and governor is None
            and len(cluster.models) == 1
            and not policy.seqlen_buckets
            and not has_seqlens
            and self._routing != "round-robin"
            and cluster.service_table(cluster.models[0]).uniform
            and not getattr(self, "_force_general", False)
        ):
            # Single plain slot on a uniform host set: the queue is a
            # sliding window over the time-sorted trace and every
            # cost-aware routing policy ties down to the lowest free chip
            # id, so the whole event loop specializes to a per-batch walk
            # (see _run_turbo).  Bit-identical to the general path —
            # golden-guarded through the homogeneous differential cases.
            return epilogue(*self._run_turbo(cols, stream, log), len(cols))
        # One queue per (tenant, model) slot.  Without tenancy there is a
        # single anonymous tenant "", so the slot list — and the dispatch
        # scan order below — collapses to the legacy per-model layout.
        tenant_order = tenancy.names if tenancy is not None else ("",)
        model_order = tuple(cluster.models)
        n_models = len(model_order)
        model_index = {m: i for i, m in enumerate(model_order)}
        slots: Tuple[Tuple[str, str], ...] = tuple(
            (t, m) for t in tenant_order for m in model_order
        )
        tenant_list: List[str] = [slot[0] for slot in slots]
        model_list: List[str] = [slot[1] for slot in slots]
        # The run's request columns as lists, one entry per row; a
        # closed-loop issue appends a row (push_arrival).  ``row_slot`` is
        # the row's (tenant, model) slot and ``row_tenant`` its own tag
        # (which names no slot when tenancy is off).
        arrival_of = cols.arrival_ns.tolist()
        seq_len_of = cols.seq_len.tolist()
        decode_of = cols.decode_tokens.tolist()
        id_of = cols.request_id.tolist()
        # (The input checks leave no row outside the slot tables; -1 only
        # marks table names no row uses.)
        row_slot = np.array(
            [model_index.get(m, -1) for m in cols.model_names], dtype=np.int64
        )[cols.model_code]
        if tenancy is not None:
            tenant_index = {t: i for i, t in enumerate(tenant_order)}
            row_slot += n_models * np.array(
                [tenant_index.get(t, -1) for t in cols.tenant_names],
                dtype=np.int64,
            )[cols.tenant_code]
        row_slot = row_slot.tolist()
        row_tenant = [cols.tenant_names[c] for c in cols.tenant_code.tolist()]
        queue_list = [
            ModelQueue(arrival_of, seq_len_of, policy.seqlen_buckets)
            for _ in slots
        ]
        # slot index -> deadline of its one pending window timer.  Arming
        # at most one timer per queue per deadline matters once the scan
        # covers several queues: unguarded, every timer firing re-arms
        # every other not-ready queue, and the timer population grows
        # geometrically with the slot count (heap blowup at steady
        # sub-capacity load, where queues sit non-empty-but-unready).
        window_armed: Dict[int, float] = {}
        scheduler = (
            make_scheduler(tenancy.scheduler)
            if tenancy is not None
            else FifoScheduler()
        )
        scheduler.reset(tenancy.tenants if tenancy is not None else ())
        preempting = tenancy is not None and tenancy.preemption
        if preempting:
            priority_of = {t.name: t.slo.priority for t in tenancy.tenants}
            deadlines = {
                (t.name, m): deadline_ns(t, m, cluster)
                for t in tenancy.tenants
                for m in model_order
            }
            ref_ns = {m: cluster.reference_latency_ns(m) for m in model_order}
        # Slots whose arrivals may preempt: a preempting SLO class with a
        # finite deadline (see maybe_preempt).
        slot_preempts = [
            preempting and tenancy.tenant(t).slo.preempts
            and not math.isinf(deadlines[(t, m)])
            for t, m in slots
        ]
        backlog: Dict[str, int] = {t: 0 for t in tenant_order}
        chip_free = [0.0] * cluster.n_chips
        chip_busy = [0.0] * cluster.n_chips
        routing = self._routing
        decode_on = decode_cfg is not None
        n_pslots = len(slots)
        # One decode FIFO per model, addressed as the slots past the
        # prefill slots (index n_pslots + model index), so the dirty-set
        # scan covers both phases.  Tenancy, clients and elastic fleets
        # are banned with decode (one rule table), so decode slots never
        # meet those branches.
        decode_queues: List[deque] = [deque() for _ in model_order]
        # -- host sets ------------------------------------------------------
        # Set i is model i's prefill cost table and, with decode, set
        # n_models + i its decode table; each table's ``hosts`` are the
        # chips the set dispatches onto, in ascending id order
        # (ServiceCostTable decides them, placement included).  No set is
        # empty: Cluster rejects a model placed on no chip, and
        # prefill-decode places every model on every chip of its two or
        # more groups.
        set_table = [cluster.service_table(m) for m in model_order]
        if decode_on:
            set_table += [cluster.decode_table(m) for m in model_order]
            kv_per_token = {
                m: cluster.kv_bytes_per_token(m) for m in model_order
            }
            kv_cap = [
                cluster.kv_capacity_bytes(c) for c in range(cluster.n_chips)
            ]
            page = decode_cfg.page_tokens
            walk = log is None and governor is None  # see dispatch_decode
        # A uniform set — one cost key and, for decode, one KV capacity —
        # prices every host identically, so the cost-aware policies tie on
        # every chip and take the lowest free host id, unpriced.  Throttle
        # state is per fleet group and a cost key names one group, so a
        # power cap cannot break the tie either.
        set_uniform = [
            routing != "round-robin" and table.uniform for table in set_table
        ]
        set_hosts = [table.hosts for table in set_table]
        # ``chip_free`` (finish-time floats) stays the ground truth, but
        # the dispatch scan reads freedom through an O(1) index: a per-chip
        # boolean, a per-set free-host count, and a heap of (finish, chip)
        # entries drained at every event pop (the pending completion frees
        # its chip at its own pop).  A chip is observably free at its exact
        # finish instant — even while an earlier same-timestamp completion
        # is being processed.
        is_free = [True] * cluster.n_chips
        set_free = [len(hosts) for hosts in set_hosts]
        # Round-robin cursor per set (shared across tenants — rotation is
        # a chip-placement concern; the scheduler owns fairness).
        set_rr = [0] * len(set_hosts)
        sets_of_chip: List[List[int]] = [[] for _ in range(cluster.n_chips)]
        for k, hosts in enumerate(set_hosts):
            for c in hosts:
                sets_of_chip[c].append(k)
        # slot index -> host set: (tenant, model) queues, then decode FIFOs.
        slot_set = [model_index[m] for m in model_list]
        if decode_on:
            slot_set += range(n_models, 2 * n_models)
        slots_by_chip = tuple(
            tuple(s for s, k in enumerate(slot_set) if k in sets_of_chip[c])
            for c in range(cluster.n_chips)
        )
        free_heap: List[Tuple[float, int]] = []
        # Slots an event may have made dispatchable.  The post-dispatch
        # invariant — no slot is simultaneously non-empty, ready, and
        # free-hosted once dispatch() returns — means only event-touched
        # slots can become eligible, so the scan visits exactly these
        # instead of every slot on every event.
        dirty: Set[int] = set()

        def mark_free(chip: int) -> None:
            """Index a chip as free and dirty every slot it could serve."""
            is_free[chip] = True
            for k in sets_of_chip[chip]:
                set_free[k] += 1
            dirty.update(slots_by_chip[chip])

        def claim_chip(chip: int) -> None:
            """Drop a chip from the free index (dispatched to, or parked)."""
            if is_free[chip]:
                is_free[chip] = False
                for k in sets_of_chip[chip]:
                    set_free[k] -= 1

        n_decode_iters = 0
        kv_total = 0.0
        kv_overflow_total = 0.0
        # -- elastic fleet state --------------------------------------------
        # The active set is always the chip-id prefix [0, n_active):
        # scale-downs drain the highest active chip, scale-ups activate
        # the lowest parked one, so the invariant holds by induction.
        # ``draining`` holds the drained chips (all >= n_active) still
        # finishing their in-flight batch: they burn chip-time until they
        # park, so the cost timeline records n_active + len(draining).
        el_on = elastic_cfg is not None
        controller: Optional[ElasticController] = None
        draining: Set[int] = set()
        el_actions: List[ScalingAction] = []
        el_timeline: List[Tuple[float, int]] = []
        n_active = cluster.n_chips
        el_pending = 0  # chips requested, not yet activated
        el_cancel = 0  # in-flight activations revoked by a later drain
        el_arrivals = 0  # arrivals since the last controller evaluation
        n_scale = 0  # _SCALE events: evaluations and activations
        el_interval_ns = el_delay_ns = 0.0
        if el_on:
            for c in range(el_init, cluster.n_chips):
                claim_chip(c)
            n_active = el_init
            el_timeline.append((0.0, el_init))
            if el_lo != el_hi:
                controller = ElasticController(
                    elastic_cfg,
                    cluster,
                    el_lo,
                    el_hi,
                    n_clients=(
                        clients.n_clients if clients is not None else 0
                    ),
                    think_time_ms=(
                        clients.think_time_ms if clients is not None else 0.0
                    ),
                )
                el_interval_ns = elastic_cfg.interval_ms * 1e6
                el_delay_ns = elastic_cfg.provision_delay_ms * 1e6
        track_queued = admission is not None or controller is not None
        model_queued: Dict[str, int] = {m: 0 for m in model_order}
        total_queued = 0
        running: Dict[int, _InFlight] = {}
        cancelled: set = set()  # tombstoned _InFlight keys
        # Completions land here in landing order: the served rows and one
        # table row per landed prefill batch or finished decode request
        # (the end of its range of ``landed``, then its ServedColumns
        # fields).
        landed: List[int] = []
        table_rows: List[tuple] = []
        no_decode = (0.0, 0.0, 0.0) if decode_on else ()
        live = [np.empty(0, np.int64), np.empty((0, 7 + len(no_decode)))]

        def record(ordered: bool = False) -> ServedColumns:
            # Every list only grows: a read converts just the new landings
            # and the closed-loop rows appended since the last read.
            nonlocal cols
            n = len(cols)
            if n < len(arrival_of):
                # Only closed loops append rows, and they are untagged: a
                # row's slot is its model's index.
                cols = cols + TraceColumns(
                    arrival_of[n:], row_slot[n:], model_order,
                    seq_len_of[n:], decode_of[n:], id_of[n:],
                )
            live[0] = done = grow(live[0], landed)
            live[1] = table = grow(live[1], table_rows)
            return ServedColumns.land(cols.take(done), table, ordered=ordered)

        rejected: List[RejectedRequest] = []
        preempted: List[PreemptionRecord] = []
        n_rejections = 0
        n_batches = 0
        makespan = 0.0
        n_events = 0
        n_dispatch_rounds = 0
        n_slot_scans = 0
        tick = None if stream is None else stream._begin_run(record, cluster)
        # Observability: one `is not None` branch per event site — with
        # no log the loop below runs the exact pre-observability
        # instruction stream.  Appends only *read* state, so the logged
        # run's result is object-for-object identical.
        if log is not None:
            log.begin(cluster)
            if governor is not None:
                governor.on_throttle = lambda t_ns, group, engaged: log.append(
                    (THROTTLE, t_ns, group, engaged)
                )
        # Self-profiling (off by default: one falsy branch per event).
        profiling = self._profile
        heap_peak = 0
        scan_sizes: Dict[int, int] = {}

        events: List[tuple] = []
        # The merged arrival cursor: the trace's rows are merged into the
        # event order on the fly, instead of materializing N heap tuples
        # up front.  Dynamic arrivals (retries, closed-loop follow-ups)
        # still go through the heap with sequence numbers >= trace_n, so
        # every same-timestamp tie breaks exactly as the old all-heap
        # order did.
        trace_n = len(arrival_of)
        max_batch = policy.max_batch_size
        cursor = 0
        seq = trace_n
        pending: Optional[tuple] = None  # held next completion; see launch()
        if controller is not None:
            # First controller evaluation one interval in; re-armed from
            # the _SCALE handler while the run still has work, so the
            # chain stops once the loop is otherwise drained.
            heapq.heappush(events, (el_interval_ns, _SCALE, seq, None))
            seq += 1

        def route(k: int, key) -> int:
            """Pick the free host of set ``k`` a formed batch runs on.

            A uniform set takes its lowest free host id; ``round-robin``
            rotates the set's cursor over its hosts; otherwise the free
            host with the smallest phase-supplied routing ``key`` wins.
            Every key ends in the chip id, so ties break toward the
            lowest id for determinism.  A uniform set reads no key, so its
            caller may pass ``None``.
            """
            hosts = set_hosts[k]
            if set_uniform[k]:
                for chip in hosts:
                    if is_free[chip]:
                        return chip
            if routing == "round-robin":
                start = set_rr[k]
                for offset in range(len(hosts)):
                    chip = hosts[(start + offset) % len(hosts)]
                    if is_free[chip]:
                        set_rr[k] = (start + offset + 1) % len(hosts)
                        return chip
                raise RuntimeError("no free chip among hosts")  # unreachable
            return min([c for c in hosts if is_free[c]], key=key)

        def routing_key(
            chip: int, cost: ChipService, by_latency: bool
        ) -> tuple:
            """Rank ``chip`` for a batch that would cost it ``cost``.

            A binding power envelope prices the *stretched* latency of a
            hot group, so ``fastest`` steers around heat.
            ``cheapest-energy`` breaks energy ties on that latency when
            ``by_latency`` is set, else straight on the chip id.
            """
            latency = (
                cost.latency_ns
                if throttler is None
                else throttler.priced_latency(chip, cost)
            )
            if routing == "fastest":
                return (latency, chip)
            if by_latency:
                return (cost.energy_pj, latency, chip)
            return (cost.energy_pj, chip)

        def launch(chip: int, finish: float, inflight) -> None:
            """Occupy ``chip`` until ``finish`` and schedule the completion.

            The completion event carries the in-flight record — the
            feedback edge closed-loop clients listen on, and the unit
            preemption tombstones.  The seq tiebreak is unique, so the
            payload is never compared.  A completion strictly earlier than
            the heap top and the next trace arrival waits in the single
            ``pending`` slot instead of both heaps.
            """
            nonlocal seq, pending
            if is_free[chip]:  # a kept decode chip was never freed
                claim_chip(chip)
            chip_free[chip] = finish
            event = (finish, _COMPLETION, seq, inflight)
            seq += 1
            if pending is None and (not events or finish < events[0][0]) and (
                cursor >= trace_n or finish < arrival_of[cursor]
            ):
                pending = event
            else:
                heapq.heappush(free_heap, (finish, chip))
                heapq.heappush(events, event)

        def release(finish: float, chip: int, now: float) -> None:
            """Drain one finished chip into the free index (stale entries —
            preempted-then-recommitted chips — fail the time check)."""
            if not is_free[chip] and chip_free[chip] <= now:
                if chip < n_active:
                    mark_free(chip)
                elif chip in draining:
                    # A drained chip finished its in-flight batch: it parks
                    # at the completion instant, not in the free index.
                    draining.discard(chip)
                    el_timeline.append((finish, n_active + len(draining)))
                    if log is not None:
                        log.append((SCALE, finish, "park", 1))

        def commit_batch(
            index: int,
            batch: Tuple[List[int], int],
            now: float,
            chip: Optional[int] = None,
            overhead_ns: float = 0.0,
        ) -> None:
            """Route a batch popped from slot ``index`` (unless ``chip`` is
            given), price, launch.  ``batch`` is what
            :meth:`ModelQueue.pop_batch` returned: its rows and padded length.

            Cost-aware routing prices the exact batch on each candidate
            through the same cost rows the dispatch itself uses, so
            homogeneous runs stay simulator-call-identical.  All
            result-facing accounting (served records, busy time,
            makespan) is deferred to the completion event so a preemption
            can still cancel the batch; the floats are computed here and
            carried, so deferral changes no value.  ``overhead_ns`` is the
            re-dispatch cost paid when ``chip`` was freed by a preemption
            an instant ago.
            """
            nonlocal n_batches, total_queued
            rows, padded = batch
            size = len(rows)
            tenant, model = tenant_list[index], model_list[index]
            if tenancy is not None:
                backlog[tenant] -= size
            if track_queued:
                model_queued[model] -= size
                total_queued -= size
            k = model_index[model]
            table = set_table[k]
            if chip is None:
                chip = route(
                    k,
                    lambda c: routing_key(
                        c, table.get(c, size, padded), throttler is not None
                    ),
                )
            cost = table.get(chip, size, padded)
            if governor is not None:
                service_ns = governor.admit(chip, now, cost)
            else:
                service_ns = cost.latency_ns
            scheduler.on_dispatch(tenant, service_ns)
            # A zero overhead adds exactly 0.0, so no float moves.
            finish = now + overhead_ns + service_ns
            busy_ns = overhead_ns + service_ns
            inflight = _InFlight(
                key=seq,
                slot=index,
                rows=rows,
                chip_id=chip,
                dispatch_ns=now,
                finish_ns=finish,
                busy_ns=busy_ns,
                share_pj=cost.energy_pj / size,
                padded=padded,
            )
            running[chip] = inflight
            launch(chip, finish, inflight)
            n_batches += 1
            if log is not None:
                log.append((
                    DSP, now, chip, model, tenant,
                    [id_of[r] for r in rows], finish, overhead_ns,
                ))

        def decode_price(
            table, c: int, take: int, ctx_pad: int, total_kv: float
        ) -> Tuple[ChipService, float]:
            """A decode iteration's cost on ``c`` and its KV bytes spilled."""
            svc = table.get(c, take, ctx_pad)
            overflow = total_kv - kv_cap[c]
            if overflow <= 0:
                return svc, 0.0
            spill = cluster.kv_overflow_service(c, overflow)
            return ChipService(
                svc.latency_ns + spill.latency_ns,
                svc.energy_pj + spill.energy_pj,
            ), overflow

        def dispatch_decode(
            mi: int, now: float, chip: int = -1, record: tuple = ()
        ) -> Optional[tuple]:
            """Form, route and launch one decode iteration for model ``mi``.

            Continuous batching: the batch is whatever the decode FIFO
            holds right now (up to the batch cap) — finished requests
            already left, freshly prefilled ones already joined.  The
            iteration runs at the longest member's context rounded up to
            the KV page size, and KV past the chip's residual on-chip
            capacity streams at the overflow-weights cost — which
            cost-aware routing prices per candidate, so ``fastest`` steers
            toward chips with KV headroom.

            A ``chip`` given was kept by :func:`keep_decode`, where the
            route would land.  A ``record`` given is the stream's
            previous iteration on that chip, with ``life`` left and no
            request waiting to join: the same members on the same KV
            pages, so the batch, footprints, price and shares carry over
            and only the finish instant is new.  With no log or governor
            attached, a kept iteration that is the loop's next event — it
            finishes strictly before the held completion, the heap top and
            the next trace arrival — is returned unlaunched, to be
            completed in place.
            """
            nonlocal n_decode_iters, seq
            kept = chip >= 0
            if record:
                (_, _, _, entries, footprints, _, share, total_kv,
                 overflow, cost, ctx_pad, life) = record
                life -= 1
            else:
                dq = decode_queues[mi]
                if len(dq) <= max_batch:
                    entries = list(dq)
                    dq.clear()
                else:
                    entries = [dq.popleft() for _ in range(max_batch)]
                take = len(entries)
                per_tok = kv_per_token[model_order[mi]]
                ctx_pad = 0
                life = page  # more than any member's page slack
                footprints = []
                for e in entries:
                    rounded = (e.ctx + page - 1) // page * page  # page_round
                    if rounded > ctx_pad:
                        ctx_pad = rounded
                    footprints.append(per_tok * rounded)
                    # Iterations until this member crosses its page or
                    # finishes: the record stays exact that long.
                    if rounded - e.ctx < life:
                        life = rounded - e.ctx
                    if e.remaining <= life:
                        life = e.remaining - 1
                total_kv = float(sum(footprints))
                k = n_models + mi
                table = set_table[k]
                if not kept:
                    key = None if set_uniform[k] else lambda c: routing_key(
                        c, decode_price(table, c, take, ctx_pad, total_kv)[0],
                        True,
                    )
                    chip = route(k, key)
                cost, overflow = decode_price(
                    table, chip, take, ctx_pad, total_kv
                )
                share = cost.energy_pj / take
            if governor is not None:
                service_ns = governor.admit(chip, now, cost)
            else:
                service_ns = cost.latency_ns
            finish = now + service_ns
            n_decode_iters += 1
            if log is not None:
                log.append((
                    DIT, now, chip, model_order[mi], len(entries), ctx_pad,
                    finish,
                ))
            step = (finish, chip, mi, entries, footprints, service_ns, share,
                    total_kv, overflow, cost, ctx_pad, life)
            if kept and walk and (pending is None or finish < pending[0]) and (
                not events or finish < events[0][0]
            ) and (cursor >= trace_n or finish < arrival_of[cursor]):
                chip_free[chip] = finish
                seq += 1
                return step
            # tuple.__new__ is _make without its frame (once per token).
            launch(chip, finish, tuple.__new__(_DecodeInFlight, step))
            return None

        def dispatch(now: float) -> None:
            """Scan the dirty slots (ascending index) and dispatch winners.

            Behaviorally identical to the old every-slot scan: only slots
            the current event could have changed are examined, visited in
            slot-index order so window timers arm — and allocate their
            sequence numbers — in exactly the order the full scan armed
            them.  The set clears once no dirty slot is eligible; every
            later eligibility change re-dirties its slot (arrival filling
            a bucket, queue waking from empty, window expiry, chip
            freeing, preemption requeue, decode FIFO refilling).

            A pass rescans only the previous pass's candidates: free-host
            counts only fall within a round, a pop fills no other queue,
            and re-arming a window timer is idempotent.

            A decode completion skips the scan when it would only launch
            the completion's FIFO back on its chip (:func:`keep_decode`),
            and counts one round over the dirty set and one lone-candidate
            pass, as the scan would.
            """
            nonlocal seq, n_dispatch_rounds, n_slot_scans
            n_dispatch_rounds += 1
            scan = sorted(dirty)
            if profiling:
                size = len(scan)
                scan_sizes[size] = scan_sizes.get(size, 0) + 1
            while True:
                # The scheduler ranks every ready slot; under fifo the key
                # collapses to (oldest arrival, slot index) — FCFS across
                # queues, the legacy rule, so no queue can starve another
                # by list position.
                best = None
                candidates = []
                n_slot_scans += len(scan)
                for index in scan:
                    if not set_free[slot_set[index]]:
                        continue  # all hosts busy; a completion is pending
                    if index >= n_pslots:
                        # Decode slot: always window-ready (continuous
                        # batching re-forms the batch at every free
                        # instant), so eligible whenever non-empty.
                        dq = decode_queues[index - n_pslots]
                        if not dq:
                            continue
                        key = scheduler.key("", arrival_of[dq[0].row], index)
                    else:
                        queue = queue_list[index]
                        if not queue._size:
                            continue
                        deadline = queue.window_wait(now, policy)
                        if deadline is not None:
                            if window_armed.get(index) != deadline:
                                heapq.heappush(
                                    events, (deadline, _WINDOW, seq, index)
                                )
                                seq += 1
                                window_armed[index] = deadline
                            continue
                        key = scheduler.key(
                            tenant_list[index], queue.oldest_arrival_ns, index
                        )
                    candidates.append(index)
                    if best is None or key < best[0]:
                        best = (key, index)
                if best is None:
                    dirty.clear()
                    return
                scan = candidates
                index = best[1]
                if index >= n_pslots:
                    dispatch_decode(index - n_pslots, now)
                else:
                    commit_batch(
                        index, queue_list[index].pop_batch(now, policy), now
                    )

        def keep_decode(
            mi: int, chip: int, now: float, walked: bool, reuse: bool
        ) -> bool:
            """May model ``mi``'s next decode iteration keep ``chip``, whose
            release its completion's pop deferred (:func:`release_popped`)?
            Yes when releasing it and scanning would launch only this FIFO,
            back on ``chip``: the FIFO fits one batch; the host set is
            uniform with no lower-id host free; no earlier event of this
            instant freed the chip; and every other dirty slot is empty or
            a not-ready prefill queue with its window timer armed.  After an
            iteration completed in place (``walked``) only the FIFO changed.
            With ``reuse`` the stream's members, one batch, are held outside
            the FIFO.  The counters grow as the scan's would (see
            :func:`dispatch`)."""
            nonlocal n_dispatch_rounds, n_slot_scans
            dq = decode_queues[mi]
            if not (dq or reuse):
                return False
            if walked:
                size = len(slots_by_chip[chip])
            else:
                k = n_models + mi
                if (
                    len(dq) > max_batch or not set_uniform[k]
                    or is_free[chip] or chip_free[chip] > now
                ):
                    return False
                for c in set_hosts[k]:
                    if c == chip:
                        break
                    if is_free[c]:
                        return False
                dirty.update(slots_by_chip[chip])
                for index in dirty:
                    j = index - n_pslots  # a decode slot's model
                    if j >= 0:
                        if j != mi and decode_queues[j]:
                            return False
                        continue
                    queue = queue_list[index]
                    if queue._size:
                        wait = queue.window_wait(now, policy)
                        if wait is None or window_armed.get(index) != wait:
                            return False
                size = len(dirty)
            n_dispatch_rounds += 1
            n_slot_scans += size + 1
            if profiling:
                scan_sizes[size] = scan_sizes.get(size, 0) + 1
            dirty.clear()
            return True

        def release_popped(finish: float, chip: int, now: float) -> None:
            """:func:`release` at an event pop, less the popped decode
            completion's own chip: its handler releases or keeps it."""
            if type(payload) is not _DecodeInFlight or payload.chip_id != chip:
                release(finish, chip, now)

        drain = release_popped if decode_on else release

        def enqueue(row: int, index: int, now: float) -> None:
            """Admitted arrival ``row`` enters its slot ``index``'s queue."""
            nonlocal total_queued
            queue = queue_list[index]
            was_empty = not queue._size
            depth = queue.push(row)
            if track_queued:
                model_queued[model_list[index]] += 1
                total_queued += 1
            # Only two pushes can change dispatchability: waking an empty
            # queue (new window deadline to arm, instantly ready when the
            # window is 0) or filling a bucket to the batch-size cap.  Any
            # other push leaves readiness, the window deadline and the
            # free-host picture untouched — no scan needed.
            if was_empty or depth >= policy.max_batch_size:
                dirty.add(index)
            if tenancy is not None:
                tenant = tenant_list[index]
                backlog[tenant] += 1
                if backlog[tenant] == 1:
                    scheduler.on_activate(tenant)
                if slot_preempts[index]:
                    maybe_preempt(row, index, now)

        def maybe_preempt(row: int, index: int, now: float) -> None:
            """Kill a lower-priority batch if waiting would miss a deadline.

            Called only for a slot whose SLO class preempts with a finite
            deadline (``slot_preempts``).  Fires only when every hosting
            chip is busy, and only when the deadline arithmetic says the
            earliest natural free instant is too late while an immediate
            preemptive dispatch (re-dispatch overhead included) is not.
            The victim is the most recently dispatched strictly-lower-
            priority batch on a hosting chip — the one with the least
            service time to waste — and the preempting tenant's queue
            dispatches onto the freed chip at once, ahead of the normal
            scheduler scan (which would otherwise hand the chip straight
            back to the older requeued victim).
            """
            nonlocal total_queued
            tenant_name, model = slots[index]
            model_hosts = set_hosts[model_index[model]]
            if any(chip_free[c] <= now for c in model_hosts):
                return  # a free host exists; the normal dispatch handles it
            deadline_at = arrival_of[row] + deadlines[(tenant_name, model)]
            ref = ref_ns[model]
            overhead = tenancy.preemption_overhead_ns
            if min(chip_free[c] for c in model_hosts) + ref <= deadline_at:
                return  # waiting for the earliest chip still makes it
            if now + overhead + ref > deadline_at:
                return  # already dead on arrival; preempting wastes work
            mine = priority_of[tenant_name]
            victims = [
                (c, running[c])
                for c in model_hosts
                if c in running
                and priority_of.get(tenant_list[running[c].slot], mine) > mine
            ]
            if not victims:
                return
            chip, victim = max(
                victims, key=lambda cv: (cv[1].dispatch_ns, -cv[0])
            )
            cancelled.add(victim.key)
            del running[chip]
            wasted = now - victim.dispatch_ns
            chip_busy[chip] += wasted
            victim_tenant, victim_model = slots[victim.slot]
            size = len(victim.rows)
            queue_list[victim.slot].push_front(victim.rows)
            # The requeue moved the victim queue's oldest arrival back, so
            # its window deadline must re-arm on the next scan.
            dirty.add(victim.slot)
            if track_queued:
                model_queued[victim_model] += size
                total_queued += size
            if backlog[victim_tenant] == 0:
                scheduler.on_activate(victim_tenant)
            backlog[victim_tenant] += size
            preempted.append(
                PreemptionRecord(
                    tenant=victim_tenant,
                    model=victim_model,
                    chip_id=chip,
                    preempt_ns=now,
                    wasted_ns=wasted,
                    batch_size=size,
                    by_tenant=tenant_name,
                )
            )
            if log is not None:
                log.append((
                    PRE, now, chip, victim_model, victim_tenant,
                    [id_of[r] for r in victim.rows], wasted,
                    tenant_name, victim.finish_ns,
                ))
            chip_free[chip] = now
            # Rebalance the free index across the free-then-recommit pair
            # (the immediate commit below marks it busy again); the dirty
            # marks this leaves behind cover the preemptor's popped queue.
            mark_free(chip)
            commit_batch(
                index, queue_list[index].pop_batch(now, policy), now,
                chip=chip, overhead_ns=overhead,
            )

        def push_arrival(request: Request) -> None:
            """Append a closed-loop issue as a row; schedule its arrival."""
            nonlocal seq
            arrival_of.append(request.arrival_ns)
            seq_len_of.append(request.seq_len)
            decode_of.append(request.decode_tokens)
            id_of.append(request.request_id)
            row_slot.append(model_index[request.model])
            row_tenant.append(request.tenant)
            heapq.heappush(
                events, (request.arrival_ns, _ARRIVAL, seq, len(id_of) - 1)
            )
            seq += 1

        while True:
            # Merge the pending completion, the event heap and the next
            # trace arrival by (time, kind, seq) without materializing
            # arrival tuples: the cursor wins a timestamp tie against all
            # but a completion (kind 0) — the old all-heap order, given
            # cursor sequence numbers precede every dynamic event's.
            if pending is not None and (not events or pending < events[0]) and (
                cursor >= trace_n or pending[0] <= arrival_of[cursor]
            ):
                now, kind, _, payload = pending
                pending = None
                drain(now, payload.chip_id, now)
            elif cursor < trace_n:
                arrival = arrival_of[cursor]
                if events:
                    head = events[0]
                    if head[0] < arrival or (
                        head[0] == arrival and head[1] == _COMPLETION
                    ):
                        now, kind, _, payload = heapq.heappop(events)
                    else:
                        now, kind, payload = arrival, _ARRIVAL, cursor
                        cursor += 1
                else:
                    now, kind, payload = arrival, _ARRIVAL, cursor
                    cursor += 1
            elif events:
                now, kind, _, payload = heapq.heappop(events)
            else:
                break
            n_events += 1
            if profiling:
                queued = len(events) + (pending is not None)
                if queued > heap_peak:
                    heap_peak = queued
            # Drain chips whose batches have finished by now into the free
            # index.  A held completion is never among them: it was strictly
            # earlier than every event queued at its launch, and later
            # events carry larger seqs, so it is the first pop of its
            # instant and frees its chip there (above).  A popped decode
            # completion's own chip is left to its handler (keep_decode).
            while free_heap and free_heap[0][0] <= now:
                drain(*heapq.heappop(free_heap), now)
            if governor is not None:
                # Power is piecewise constant between events, so advancing
                # the governor exactly here makes the integration exact.
                governor.advance(now)
                if log is not None:
                    log.append((POWER, now, governor.current_power_w()))
            if kind == _ARRIVAL:
                row = payload
                index = row_slot[row]
                model = model_list[index]
                if controller is not None:
                    el_arrivals += 1
                if log is not None:
                    log.append((ARR, now, id_of[row], model, row_tenant[row]))
                if admission is None or admission.admit(
                    model,
                    row_tenant[row],
                    now,
                    model_queued[model],
                    total_queued,
                ):
                    if log is not None:
                        log.append((
                            ENQ, now, id_of[row], model, row_tenant[row],
                        ))
                    enqueue(row, index, now)
                else:
                    n_rejections += 1
                    # Open loop: nobody retries, the request drops.
                    retry_at, attempts, follow = None, 1, None
                    if driver is not None:
                        outcome = driver.on_reject(id_of[row], now)
                        retry_at, attempts = outcome.retry_at_ns, outcome.attempts
                        follow = outcome.next_request
                    if log is not None:
                        log.append((
                            REJ, now, id_of[row], model, row_tenant[row],
                            retry_at is None, attempts,
                        ))
                    if retry_at is not None:
                        # The retry keeps its row, so its original arrival
                        # stamp (latency stays client-perceived across
                        # attempts), but re-enters at the backoff instant,
                        # so the event is scheduled there.
                        heapq.heappush(events, (retry_at, _ARRIVAL, seq, row))
                        seq += 1
                    else:
                        rejected.append(RejectedRequest(
                            Request(
                                id_of[row], model, arrival_of[row],
                                seq_len_of[row], row_tenant[row],
                                decode_of[row],
                            ),
                            now,
                            attempts,
                        ))
                        if follow is not None:
                            push_arrival(follow)
            elif kind == _COMPLETION:
                inflight = payload
                if type(inflight) is _DecodeInFlight:
                    # One decode iteration finished: every member gained
                    # a token.  Finished requests land as a row of their
                    # own (stamped with prefill dispatch/TTFT and the
                    # decode-accumulated energy/KV); the rest
                    # requeue at the FIFO tail, and the slot re-dirties
                    # so the next iteration's batch re-forms at once.
                    mi = inflight.model_index
                    dq = decode_queues[mi]
                    step = inflight
                    while True:
                        (now, chip, _, entries, footprints, busy_ns, share,
                         total_kv, batch_overflow, _, _, life) = step
                        chip_busy[chip] += busy_ns
                        if now > makespan:
                            makespan = now
                        # No member finishes or crosses a page (``life``)
                        # and none joined: a kept chip reuses the record,
                        # and the members skip the FIFO.
                        reuse = life > 0 and not dq
                        requeued = reuse
                        for entry, footprint in zip(entries, footprints):
                            entry.ctx += 1
                            entry.remaining -= 1
                            entry.energy_pj += share
                            entry.kv_bytes += footprint
                            if batch_overflow:
                                entry.kv_overflow += batch_overflow * (
                                    footprint / total_kv
                                )
                            if entry.remaining == 0:
                                kv_total += entry.kv_bytes
                                kv_overflow_total += entry.kv_overflow
                                prefill = entry.prefill
                                landed.append(entry.row)
                                table_rows.append((
                                    len(landed), chip,
                                    len(prefill.rows), prefill.dispatch_ns,
                                    now, entry.energy_pj,
                                    prefill.padded, prefill.finish_ns,
                                    entry.kv_bytes, entry.kv_overflow,
                                ))
                            elif not reuse:
                                dq.append(entry)
                                requeued = True
                        if tick is not None:
                            tick(len(landed))
                        if requeued:
                            dirty.add(n_pslots + mi)
                        walked = step is not inflight
                        if not keep_decode(mi, chip, now, walked, reuse):
                            if reuse:
                                dq.extend(entries)
                            release(now, chip, now)
                            if dirty:
                                dispatch(now)
                            break
                        step = dispatch_decode(
                            mi, now, chip, step if reuse else ()
                        )
                        if step is None:
                            break
                        # The iteration is the loop's next event: pop it.
                        # Nothing was queued since the last pop, so the
                        # heap peak stands.
                        n_events += 1
                    continue
                if inflight.key in cancelled:
                    # Preempted mid-service: the wasted time was charged
                    # and the requests requeued at preemption time; the
                    # stale completion is a no-op tombstone.
                    cancelled.discard(inflight.key)
                    continue
                if running.get(inflight.chip_id) is inflight:
                    del running[inflight.chip_id]
                # All floats were fixed at dispatch; landing the
                # accounting here (completion order == per-chip dispatch
                # order, and the record is sorted at the end) is
                # value-identical to the legacy dispatch-time bookkeeping.
                chip_busy[inflight.chip_id] += inflight.busy_ns
                if inflight.finish_ns > makespan:
                    makespan = inflight.finish_ns
                rows = inflight.rows
                model = model_list[inflight.slot]
                if log is not None:
                    log.append((
                        CMP, now, inflight.chip_id, model, row_tenant[rows[0]],
                        [id_of[r] for r in rows], [arrival_of[r] for r in rows],
                        inflight.dispatch_ns, inflight.share_pj,
                    ))
                # Requests with a sampled output length enter their
                # model's decode FIFO (their first token just
                # materialized — the TTFT stamp); the rest land.  The
                # input checks reject decode_tokens without a decode loop.
                done = rows
                if decode_on:
                    done = []
                    mi = model_index[model]
                    for row in rows:
                        tokens = decode_of[row]
                        if not tokens:
                            done.append(row)
                            continue
                        ctx = seq_len_of[row] or cluster.native_seq_len(model)
                        decode_queues[mi].append(
                            _DecodeEntry(row, tokens, ctx, inflight)
                        )
                        dirty.add(n_pslots + mi)
                landed.extend(done)
                table_rows.append((
                    len(landed), inflight.chip_id, len(rows),
                    inflight.dispatch_ns, inflight.finish_ns,
                    inflight.share_pj, inflight.padded,
                ) + no_decode)
                if tick is not None:
                    tick(len(landed))
                if driver is not None:
                    # The feedback edge: each finished request unblocks
                    # its session, which thinks and then issues the next
                    # arrival.
                    for row in rows:
                        follow = driver.on_complete(id_of[row], now)
                        if follow is not None:
                            push_arrival(follow)
            elif kind == _WINDOW:
                # The timer is spent; clear its armed marker so the
                # dispatch scan below can arm the next one.  A stale
                # timer (marker moved: the queue emptied and re-armed at
                # a different deadline, whose own event is still in the
                # heap) changes no queue or chip state, so the scan it
                # used to trigger was a no-op by the dispatch invariant —
                # skip it.
                if window_armed.get(payload) == now:
                    del window_armed[payload]
                    dirty.add(payload)
            elif payload is None:  # _SCALE: periodic controller evaluation
                n_scale += 1
                delta, reason = controller.decide(
                    arrivals=el_arrivals,
                    interval_s=el_interval_ns * 1e-9,
                    backlog=total_queued,
                    n_provisioned=n_active + el_pending,
                    over_cap=(
                        governor.over_cap() if governor is not None else False
                    ),
                )
                el_arrivals = 0
                if delta > 0:
                    el_pending += delta
                    el_actions.append(
                        ScalingAction(
                            t_ns=now,
                            kind="up",
                            delta=delta,
                            n_target=n_active + el_pending,
                            reason=reason,
                        )
                    )
                    if log is not None:
                        log.append((SCALE, now, "up", delta))
                    # Capacity is never instant: the chips activate one
                    # provisioning delay from now, as their own event.
                    heapq.heappush(
                        events, (now + el_delay_ns, _SCALE, seq, delta)
                    )
                    seq += 1
                elif delta < 0:
                    el_actions.append(
                        ScalingAction(
                            t_ns=now,
                            kind="drain",
                            delta=delta,
                            n_target=n_active + delta + el_pending,
                            reason=reason,
                        )
                    )
                    if log is not None:
                        log.append((SCALE, now, "drain", -delta))
                    # Cancel capacity still en route before touching live
                    # chips: the delta is relative to the *provisioned*
                    # count, which may exceed the active count while
                    # scale-ups are in flight — draining that difference
                    # off the active prefix would underflow it.
                    to_drop = -delta
                    cancel = min(to_drop, el_pending)
                    el_pending -= cancel
                    el_cancel += cancel
                    to_drop -= cancel
                    for _ in range(to_drop):
                        n_active -= 1
                        chip = n_active
                        if is_free[chip]:
                            # Idle: parks immediately.
                            claim_chip(chip)
                            el_timeline.append((now, n_active + len(draining)))
                            if log is not None:
                                log.append((SCALE, now, "park", 1))
                        else:
                            # Busy: finishes its in-flight batch first
                            # (parked by the free-heap drain above once
                            # the completion matures).
                            draining.add(chip)
                # Re-arm while the run still has work anywhere — unread
                # trace, queued requests, in-flight batches, or pending
                # heap events (retries, think-time arrivals, an
                # activation in flight).  Once all are exhausted the
                # chain stops so the loop can terminate.
                if cursor < trace_n or total_queued or running or events or pending:
                    heapq.heappush(
                        events, (now + el_interval_ns, _SCALE, seq, None)
                    )
                    seq += 1
            else:  # _SCALE: provisioned capacity arriving
                # Activate the lowest parked chips (the prefix invariant
                # makes that id exactly n_active).  Chips a later drain
                # decision cancelled while they were en route are simply
                # not activated; a still-draining chip flips back to
                # accepting work — it never parked, so the serving count
                # is untouched.
                n_scale += 1
                for _ in range(payload):
                    if el_cancel > 0:
                        el_cancel -= 1
                        continue
                    chip = n_active
                    n_active += 1
                    el_pending -= 1
                    if chip in draining:
                        draining.discard(chip)
                    else:
                        el_timeline.append((now, n_active + len(draining)))
                        mark_free(chip)
                        if log is not None:
                            log.append((SCALE, now, "activate", 1))
            if dirty:
                dispatch(now)

        elastic_trace = None
        if el_on:
            elastic_trace = ElasticTrace(
                n_fleet=cluster.n_chips,
                min_chips=el_lo,
                max_chips=el_hi,
                actions=tuple(el_actions),
                timeline=tuple(el_timeline),
                horizon_ns=makespan,
            )
        rejected.sort(key=lambda r: (r.reject_ns, r.request.request_id))
        return epilogue(
            record, chip_busy, makespan,
            (n_events, n_dispatch_rounds, n_slot_scans, n_batches),
            scan_sizes, heap_peak, len(arrival_of),
            rejected=rejected,
            n_rejections=n_rejections,
            n_scale=n_scale,
            n_decode_iters=n_decode_iters,
            power=governor.finish() if governor is not None else None,
            preempted=tuple(preempted),
            elastic=elastic_trace,
            kv_bytes=kv_total,
            kv_overflow_bytes=kv_overflow_total,
        )

    def _run_turbo(
        self,
        trace: TraceColumns,
        stream: Optional[StreamingMetrics],
        log: Optional[EventLog] = None,
    ) -> tuple:
        """Single-slot fast path: one model, uniform hosts, plain serving.

        Under the gate in :meth:`run` (no tenancy / admission / power /
        closed loop, one model, a single cost key across its hosts, no
        sequence lengths) the general event loop collapses:

        * the one FIFO queue is a sliding ``[head, i)`` window over the
          time-sorted trace — no per-request queue objects at all;
        * every cost-aware routing policy ties down to the lowest free
          chip id, so the free set is a small id-heap;
        * only three event kinds exist (arrival, completion, window
          timer) and non-triggering arrivals — those that neither wake an
          empty queue nor fill a bucket to the batch cap — advance a
          cursor without entering the dispatch logic.

        The walk visits each *batch* a constant number of times instead
        of each request, replaying the general path's event order bit for
        bit: completions beat arrivals beat window timers on time ties
        (the (time, kind, seq) heap order), the drain frees every chip
        finishing at the processed instant before dispatch runs, and the
        window-marker dedup rule is identical.  Every float is computed
        with the same expression the general path uses.
        """
        cluster, policy = self._cluster, self._policy
        model = cluster.models[0]
        profiling = self._profile
        heap_peak = 0
        n = len(trace)
        arr = trace.arrival_ns.tolist()
        # Logged events carry request ids, read off the trace's column.
        ids = trace.request_id.tolist() if log is not None else None
        B = policy.max_batch_size
        W = policy.window_ns
        table = cluster.service_table(model)
        free = list(table.hosts)
        heapq.heapify(free)
        busy: List[Tuple[float, int, int, int]] = []  # (finish, seq, chip, rec)
        costs: Dict[int, object] = {}  # batch size -> ChipService
        # One record per committed batch, in commit order == trace order:
        # its served-record row (end, chip, size, dispatch_ns, finish_ns,
        # share_pj, padded length 0), then (start, service_ns).
        recs: List[Tuple[int, int, int, float, float, float, int, int, float]] = []
        completion_order: List[int] = []
        chip_busy = [0.0] * cluster.n_chips
        makespan = 0.0
        i = 0  # next trace arrival
        head = 0  # queue head: queued requests are trace[head:i]
        armed: Optional[float] = None  # pending window-timer deadline
        cseq = 0
        n_events = 0
        n_rounds = 0
        n_scans = 0
        n_batches = 0
        inf = math.inf
        done = 0  # requests landed, counted for the progress check
        live = [np.empty((0, 9)), np.empty(0, np.int64)]  # converted so far

        def record(ordered: bool = False) -> ServedColumns:
            """The landed batches' record; in-flight batches are left out.
            Both lists only grow: a read converts only their new tails."""
            live[0] = rec = grow(live[0], recs)
            live[1] = order = grow(live[1], completion_order)
            rank = np.full(len(rec), -1)
            rank[order] = np.arange(len(order))
            return ServedColumns.land(trace, rec[:, :7], rank, ordered)

        tick = None if stream is None else stream._begin_run(record, cluster)
        logged = 0  # trace rows [0, logged) have their arrivals logged
        if log is not None:
            log.begin(cluster)

        def log_arrivals() -> None:
            """Log the rows that arrived since the last logged event.

            Each arrives and enqueues at its own stamp; turbo logs no
            other kind than ``DSP``/``CMP``, before which this runs, so
            the log keeps the general loop's event order.
            """
            nonlocal logged
            append = log.append
            for t, rid in zip(arr[logged:i], ids[logged:i]):
                append((ARR, t, rid, model, ""))
                append((ENQ, t, rid, model, ""))
            logged = i

        def pump(now: float) -> None:
            """The dispatch scan, specialized to the single slot."""
            nonlocal head, armed, cseq, n_rounds, n_scans, n_batches, heap_peak
            n_rounds += 1
            while True:
                n_scans += 1
                depth = i - head
                if not depth or not free:
                    return
                if depth < B:
                    oldest = arr[head]
                    if now < oldest + W:
                        # Same float expression as window_deadline_ns, and
                        # the same marker-dedup rule as the general path.
                        deadline = oldest + W
                        if armed != deadline:
                            armed = deadline
                        return
                    take = depth
                else:
                    take = B
                chip = heapq.heappop(free)
                cost = costs.get(take)
                if cost is None:
                    cost = costs[take] = table.get(chip, take, 0)
                service = cost.latency_ns
                finish = now + service
                heapq.heappush(busy, (finish, cseq, chip, len(recs)))
                recs.append((
                    head + take, chip, take, now, finish, cost.energy_pj / take,
                    0, head, service,
                ))
                cseq += 1
                n_batches += 1
                if log is not None:
                    log_arrivals()
                    log.append((
                        DSP, now, chip, model, "", ids[head : head + take],
                        finish, 0.0,
                    ))
                if profiling and len(busy) > heap_peak:
                    heap_peak = len(busy)
                head += take

        while i < n or busy or head < i:
            t_c = busy[0][0] if busy else inf
            t_a = arr[i] if i < n else inf
            t_w = armed if armed is not None else inf
            if t_c <= t_a and t_c <= t_w:
                now = t_c
                # Drain every completion at this instant: chips become
                # observably free together (the general path's free-index
                # drain), accounting lands in (finish, seq) order, and one
                # dispatch follows — the general loop's later same-instant
                # completion events find nothing dirty.
                while busy and busy[0][0] <= now:
                    _, _, chip, ri = heapq.heappop(busy)
                    n_events += 1
                    heapq.heappush(free, chip)
                    rec = recs[ri]
                    chip_busy[chip] += rec[8]
                    completion_order.append(ri)
                    if log is not None:
                        log_arrivals()
                        log.append((
                            CMP, rec[4], chip, model, "", ids[rec[7] : rec[0]],
                            arr[rec[7] : rec[0]], rec[3], rec[5],
                        ))
                    if tick is not None:
                        done += rec[2]
                        tick(done)
                if now > makespan:
                    makespan = now
                pump(now)
            elif t_a <= t_w:
                was_empty = head == i
                i += 1
                n_events += 1
                if was_empty or i - head >= B:
                    pump(t_a)
                else:
                    # Bulk-advance arrivals that cannot trigger dispatch:
                    # depth stays under the cap and no earlier event
                    # intervenes (window timers lose arrival time ties).
                    cap = head + B - 1
                    if cap > n:
                        cap = n
                    while i < cap:
                        a = arr[i]
                        if a < t_c and a <= t_w:
                            i += 1
                            n_events += 1
                        else:
                            break
            else:
                now = armed
                armed = None
                n_events += 1
                pump(now)

        # The walk's products, for the epilogue in run(); returning frees
        # the arrival list first.  Every dispatch round examines the one
        # dirty slot, so the scan histogram is a single bucket.
        counts = (n_events, n_rounds, n_scans, n_batches)
        return record, chip_busy, makespan, counts, {1: n_rounds}, heap_peak
