"""Admission control: decide at arrival time whether a request enters.

Every serving result before this module was open-loop *and* unconditionally
admitting: arrivals were pushed into the queues regardless of what the
cluster could absorb, so overload collapsed into unbounded queueing delay
instead of the explicit rejections a deployed endpoint returns.  An
:class:`AdmissionPolicy` closes that gap — the engine consults it once per
arriving request, before the request touches a queue, and a rejected
request either drops (open-loop traces) or goes back to its closed-loop
client for retry-with-backoff (:mod:`repro.serve.clients`).

Four policies cover the classic serving playbook:

* :class:`AcceptAll` — the no-op, provably byte-identical to running
  without an admission layer at all (the differential goldens assert it);
* :class:`QueueDepthCap` — reject once the cluster-wide queued backlog
  reaches a fixed depth, the classic bounded-queue load shedder;
* :class:`TokenBucket` — rate-limit admissions to ``rate_rps`` with a
  ``burst`` allowance, the entry-gateway throttle;
* :class:`SloAwareShedding` — reject requests *predicted* to miss their
  latency SLO, using the cluster's own per-(model, chip-group) cost
  tables (:meth:`repro.serve.cluster.Cluster.predicted_latency_ns`) as
  the deadline predictor: why queue work that is already dead on arrival?

Policies are deterministic and stateful per run: the engine calls
:meth:`AdmissionPolicy.reset` at the start of every
:meth:`~repro.serve.engine.ServingEngine.run` so one policy object can be
reused across runs without leaking token-bucket or cache state.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.serve.batching import BatchingPolicy
from repro.serve.cluster import DEFAULT_SLO_MULTIPLE, Cluster

#: Policy names the CLI exposes via ``--admission`` (see
#: :func:`parse_admission` for the parameterized spec syntax).
ADMISSION_POLICIES = ("accept-all", "queue-cap", "token-bucket", "slo-aware")


class AdmissionPolicy:
    """Base class: one admit/reject decision per arriving request.

    ``admit`` sees the arriving request's model and tenant ("" for
    untagged traffic), the arrival instant, the backlog queued for that
    model and the cluster-wide queued total — everything the canonical
    policies need, with no reference to engine internals.  The engine
    holds a queued request as a row of the run's request columns, so a
    policy never receives a request object.  Implementations must be
    deterministic: the same sequence of calls after a ``reset`` must
    produce the same decisions.
    """

    #: Stable policy name surfaced on results/reports (subclasses set it).
    name: str = "?"

    def reset(self, cluster: "Cluster", policy: BatchingPolicy) -> None:
        """Re-arm per-run state; called once per engine run."""

    def admit(
        self,
        model: str,
        tenant: str,
        now_ns: float,
        model_depth: int,
        total_depth: int,
    ) -> bool:
        raise NotImplementedError


class AcceptAll(AdmissionPolicy):
    """Admit everything — the explicit spelling of "no admission layer".

    Running the engine with this policy is byte-for-byte identical to
    running it with ``admission=None`` (asserted by the differential
    golden tests): the decision touches no float of the simulation.
    """

    name = "accept-all"

    def admit(
        self,
        model: str,
        tenant: str,
        now_ns: float,
        model_depth: int,
        total_depth: int,
    ) -> bool:
        return True


@dataclasses.dataclass
class QueueDepthCap(AdmissionPolicy):
    """Reject once the cluster-wide queued backlog reaches ``max_depth``.

    The depth counts requests queued but not yet dispatched, across all
    models — the bounded-queue rule that turns unbounded queueing delay
    into explicit rejections once the cluster falls behind.
    """

    max_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    name = "queue-cap"

    def admit(
        self,
        model: str,
        tenant: str,
        now_ns: float,
        model_depth: int,
        total_depth: int,
    ) -> bool:
        return total_depth < self.max_depth


@dataclasses.dataclass
class TokenBucket(AdmissionPolicy):
    """Admit at most ``rate_rps`` requests/second with a ``burst`` allowance.

    The standard gateway rate limiter: the bucket refills continuously at
    ``rate_rps`` tokens per second up to ``burst``, and each admission
    spends one token.  Deterministic — refill is a pure function of the
    arrival timestamps, no wall clock anywhere.
    """

    rate_rps: float = 1000.0
    burst: float = 8.0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1 (no request could ever pass)")
        self._tokens = self.burst
        self._last_ns = 0.0

    name = "token-bucket"

    def reset(self, cluster: "Cluster", policy: BatchingPolicy) -> None:
        self._tokens = self.burst
        self._last_ns = 0.0

    def admit(
        self,
        model: str,
        tenant: str,
        now_ns: float,
        model_depth: int,
        total_depth: int,
    ) -> bool:
        self._tokens = min(
            self.burst,
            self._tokens + (now_ns - self._last_ns) * 1e-9 * self.rate_rps,
        )
        self._last_ns = now_ns
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclasses.dataclass
class SloAwareShedding(AdmissionPolicy):
    """Reject requests predicted to miss their latency SLO at arrival.

    The predictor is the cluster's own cost oracle
    (:meth:`~repro.serve.cluster.Cluster.predicted_latency_ns`): the
    model's batch-1 service floor on its best hosting chip — the same
    per-(model, chip-group) tables the cost-aware placer and the default
    SLO already read — plus a drain estimate for the backlog queued ahead.
    ``slo_ms`` overrides the deadline per run; by default it is
    :data:`~repro.serve.cluster.DEFAULT_SLO_MULTIPLE` times the batch-1
    floor, exactly the default :func:`repro.serve.metrics.summarize`
    scores against, so shedding and scoring agree on what "dead on
    arrival" means.

    The prediction is monotone in queue depth, so :meth:`reset` searches
    each model's deepest admissible queue once (through the predictor
    itself, which stays the one formula) and :meth:`admit` is one
    integer compare.
    """

    slo_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        self._cluster: Optional["Cluster"] = None
        self._max_batch = 1
        self._slo_ns: Dict[str, float] = {}
        self._max_depth: Dict[str, int] = {}

    name = "slo-aware"

    def reset(self, cluster: "Cluster", policy: BatchingPolicy) -> None:
        self._cluster = cluster
        self._max_batch = policy.max_batch_size
        self._slo_ns = {}
        for model in cluster.models:
            if self.slo_ms is not None:
                self._slo_ns[model] = self.slo_ms * 1e6
            else:
                self._slo_ns[model] = (
                    DEFAULT_SLO_MULTIPLE * cluster.reference_latency_ns(model)
                )
        self._max_depth = {m: self._deepest(m) for m in cluster.models}

    def _deepest(self, model: str) -> int:
        """Largest queue depth the predictor admits (-1: none)."""

        def admits(depth: int) -> bool:
            predicted_ns = self._cluster.predicted_latency_ns(
                model, depth, self._max_batch
            )
            return predicted_ns <= self._slo_ns[model]

        if not admits(0):
            return -1
        lo, hi = 0, 1  # admits(lo); grow hi until it does not
        while admits(hi):
            if hi > 1 << 62:
                return hi  # a zero-cost model: no real queue is this deep
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if admits(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def admit(
        self,
        model: str,
        tenant: str,
        now_ns: float,
        model_depth: int,
        total_depth: int,
    ) -> bool:
        if self._cluster is None:
            raise RuntimeError(
                "slo-aware shedding used before reset(); the engine arms it"
            )
        return model_depth <= self._max_depth[model]


class TenantTokenBucket(AdmissionPolicy):
    """Per-tenant token buckets enforcing each tenant's *declared* rate.

    Built from the tenants' ``rate_limit_rps`` declarations
    (:class:`repro.serve.tenancy.Tenant`): each rate-limited tenant gets
    its own continuously refilling bucket, charged only by that tenant's
    arrivals, so one tenant exceeding its declared rate burns its own
    tokens and nobody else's — the admission half of the noisy-neighbor
    isolation story (the scheduler is the other half).  Tenants without a
    declared limit (and untagged requests) pass through untouched.

    An optional ``inner`` policy composes conjunctively: a request must
    clear its tenant's bucket *and* the inner policy (e.g. a cluster-wide
    queue cap) to enter.  The bucket is consulted first; a request the
    bucket rejects never reaches — and so never perturbs — the inner
    policy's state.
    """

    def __init__(
        self,
        limits: Dict[str, "TokenBucket"],
        inner: Optional[AdmissionPolicy] = None,
    ) -> None:
        self._buckets = dict(limits)
        self._inner = inner
        self.name = "tenant-bucket" + (f"+{inner.name}" if inner else "")

    def reset(self, cluster: "Cluster", policy: BatchingPolicy) -> None:
        for bucket in self._buckets.values():
            bucket.reset(cluster, policy)
        if self._inner is not None:
            self._inner.reset(cluster, policy)

    def admit(
        self,
        model: str,
        tenant: str,
        now_ns: float,
        model_depth: int,
        total_depth: int,
    ) -> bool:
        bucket = self._buckets.get(tenant)
        if bucket is not None and not bucket.admit(
            model, tenant, now_ns, model_depth, total_depth
        ):
            return False
        if self._inner is not None:
            return self._inner.admit(
                model, tenant, now_ns, model_depth, total_depth
            )
        return True


def parse_admission(spec: str) -> AdmissionPolicy:
    """Build a policy from its CLI spec string.

    Grammar (colon-separated, like ``parse_fleet``)::

        accept-all
        queue-cap[:DEPTH]           e.g. queue-cap:64
        token-bucket:RATE[:BURST]   e.g. token-bucket:5000:16
        slo-aware[:SLO_MS]          e.g. slo-aware:2.5
    """
    parts = [p.strip() for p in spec.split(":")]
    kind, args = parts[0], parts[1:]
    try:
        if kind == "accept-all":
            if args:
                raise ValueError("accept-all takes no parameters")
            return AcceptAll()
        if kind == "queue-cap":
            if len(args) > 1:
                raise ValueError("queue-cap takes at most one parameter")
            return QueueDepthCap(*(int(a) for a in args))
        if kind == "token-bucket":
            if not 1 <= len(args) <= 2:
                raise ValueError(
                    "token-bucket needs a rate (and optional burst), "
                    "e.g. token-bucket:5000 or token-bucket:5000:16"
                )
            return TokenBucket(*(float(a) for a in args))
        if kind == "slo-aware":
            if len(args) > 1:
                raise ValueError("slo-aware takes at most one parameter")
            return SloAwareShedding(*(float(a) for a in args))
    except ValueError as error:
        raise ValueError(f"bad admission spec {spec!r}: {error}") from None
    raise ValueError(
        f"unknown admission policy {kind!r}; available: {ADMISSION_POLICIES}"
    )
