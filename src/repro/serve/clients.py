"""Closed-loop clients: sessions that block on completion and think.

Open-loop traces (:mod:`repro.serve.traces`) push arrivals regardless of
what the cluster absorbs, so overload shows up as unbounded queueing.
Real deployments are *closed-loop*: a population of N concurrent sessions
each issues one request, blocks until it completes (or is rejected by
admission control), thinks for a while, and issues the next — so offered
load is self-limiting and the capacity question becomes the one a fleet
operator actually asks: how many concurrent users does this cluster hold
at its SLO?

:class:`ClientPopulation` is the frozen configuration (session count,
think-time distribution, optional retry-with-backoff on rejection,
optional per-request sequence lengths); the engine instantiates one
:class:`ClosedLoopDriver` per run, which owns the mutable session state
and the per-session RNG streams.  Determinism discipline matches the
trace generators: all randomness sits behind the population's seed, with
one stream per session, so a (population, cluster, policy) triple replays
bit-identically.

:func:`estimated_saturation_clients` gives the analytic first-order knee
— ``hosts * (1 + think/service)`` per model — that the concurrency sweep
in ``benchmarks/bench_admission.py`` locates empirically.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro import seeds
from repro.serve.traces import Request, SEQLEN_DISTS, sample_seqlens

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serve.cluster import Cluster

#: Think-time distributions the CLI exposes via ``--think-dist``.
THINK_DISTS = ("exponential", "fixed", "uniform")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-backoff behavior of a rejected closed-loop request.

    A rejected request is resubmitted after ``backoff_ms`` (growing by
    ``multiplier`` per attempt) up to ``max_retries`` times; once
    exhausted the session gives up on that request — it counts as dropped
    — and moves on to its next think cycle.
    """

    max_retries: int = 3
    backoff_ms: float = 0.5
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1 (use retry=None to disable)")
        if self.backoff_ms < 0:
            raise ValueError("backoff_ms must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1 (backoff never shrinks)")

    def backoff_ns(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        return self.backoff_ms * 1e6 * self.multiplier ** (attempt - 1)


@dataclasses.dataclass(frozen=True)
class ClientPopulation:
    """Configuration of a closed-loop client population.

    ``n_clients`` sessions round-robin over ``models``; each session
    draws think times from its own seeded stream and issues requests only
    until ``horizon_s`` of simulated time — in-flight work then drains,
    exactly like the tail of an open-loop trace.  ``seqlen_dist`` (one of
    :data:`repro.serve.traces.SEQLEN_DISTS`) attaches a per-request
    context length to transformer requests, clamped to ``max_seq_len``
    when set (the serving max-context rule).  Think times and sequence
    lengths draw on the session and request lanes of :mod:`repro.seeds`.

    ``reject_cooldown_ms`` is the minimum delay before a session moves on
    after a *dropped* request (observing the rejection costs one round
    trip even for a zero-think client).  It must be positive: it is also
    what guarantees the event loop advances when ``think_time_ms`` is 0 —
    without it, a shedding admission policy and an instantly-reissuing
    session would livelock at one simulated instant.
    """

    models: Tuple[str, ...]
    n_clients: int
    think_time_ms: float = 5.0
    think_dist: str = "exponential"
    horizon_s: float = 0.1
    seed: int = 0
    retry: Optional[RetryPolicy] = None
    seqlen_dist: Optional[str] = None
    seqlen_mean: Optional[int] = None
    max_seq_len: Optional[int] = None
    reject_cooldown_ms: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        if not self.models:
            raise ValueError("client population needs at least one model")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.think_time_ms < 0:
            raise ValueError("think_time_ms must be non-negative")
        if self.think_dist not in THINK_DISTS:
            raise ValueError(
                f"unknown think dist {self.think_dist!r}; available: {THINK_DISTS}"
            )
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.seqlen_dist is not None and self.seqlen_dist not in SEQLEN_DISTS:
            raise ValueError(
                f"unknown seqlen dist {self.seqlen_dist!r}; "
                f"available: {SEQLEN_DISTS}"
            )
        if self.seqlen_mean is not None and self.seqlen_mean < 1:
            raise ValueError("seqlen_mean must be >= 1")
        if self.max_seq_len is not None and self.max_seq_len < 1:
            raise ValueError("max_seq_len must be >= 1")
        if self.reject_cooldown_ms <= 0:
            raise ValueError(
                "reject_cooldown_ms must be positive (it is what keeps a "
                "zero-think population from livelocking against a "
                "shedding admission policy)"
            )

    @property
    def horizon_ns(self) -> float:
        return self.horizon_s * 1e9


@dataclasses.dataclass(frozen=True)
class RejectionOutcome:
    """What a session does about one rejected request.

    ``retry_at_ns`` is set when the retry budget allows a resubmission:
    the *same* request, original arrival time included, re-enters the
    engine at that instant; keeping the arrival timestamp is what makes
    an eventually-served request's latency client-perceived (rejection
    waits and backoff included), not reset per attempt.  Otherwise
    (``None``) the request is dropped — ``attempts`` admission attempts
    were made in total — and ``next_request`` is the session's next
    fresh request (``None`` when the horizon has passed and the session
    retires).
    """

    retry_at_ns: Optional[float] = None
    attempts: int = 1
    next_request: Optional[Request] = None


class _Session:
    """One client's mutable state inside a run."""

    __slots__ = ("index", "model", "rng", "attempts")

    def __init__(self, index: int, model: str, rng: np.random.Generator) -> None:
        self.index = index
        self.model = model
        self.rng = rng
        self.attempts = 0  # admission attempts of the in-flight request


class ClosedLoopDriver:
    """Per-run session state machine the serving engine consults.

    The engine calls :meth:`start` for the initial arrivals,
    :meth:`on_complete` for every finished request (the feedback edge
    that closes the loop) and :meth:`on_reject` for every admission
    rejection; both callbacks name the request by its id.  One driver
    serves one engine run — like the power governor, it is stateful and
    must not be reused.
    """

    def __init__(
        self, population: ClientPopulation, native_seq_len: Dict[str, int]
    ) -> None:
        self._population = population
        self._native_seq_len = native_seq_len
        self._sessions: List[_Session] = []
        for index in range(population.n_clients):
            model = population.models[index % len(population.models)]
            rng = np.random.default_rng(
                seeds.session_think(population.seed, index)
            )
            self._sessions.append(_Session(index, model, rng))
        self._by_request_id: Dict[int, _Session] = {}
        self._next_id = 0
        self._n_issued = 0

    @property
    def n_issued(self) -> int:
        """Fresh requests generated so far (retries are not new issues)."""
        return self._n_issued

    # -- request generation --------------------------------------------------------
    def _think_ns(self, session: _Session) -> float:
        mean_ns = self._population.think_time_ms * 1e6
        if mean_ns == 0.0:
            return 0.0
        dist = self._population.think_dist
        if dist == "fixed":
            return mean_ns
        if dist == "uniform":
            return session.rng.uniform(0.5 * mean_ns, 1.5 * mean_ns)
        return session.rng.exponential(mean_ns)

    def _seq_len(self, session: _Session, request_id: int) -> int:
        pop = self._population
        native = self._native_seq_len.get(session.model, 0)
        if pop.seqlen_dist is None or native == 0:
            return 0
        mean = pop.seqlen_mean if pop.seqlen_mean else native
        # One fresh stream per request (seeded off the global request id)
        # keeps draws independent of completion order while reusing the
        # open-loop samplers verbatim.
        (length,) = sample_seqlens(
            pop.seqlen_dist,
            1,
            mean,
            seed=seeds.session_seqlen(pop.seed, request_id),
        )
        if pop.max_seq_len is not None:
            length = min(length, pop.max_seq_len)
        return length

    def _issue(self, session: _Session, arrival_ns: float) -> Optional[Request]:
        """The session's next fresh request, or None past the horizon."""
        if arrival_ns > self._population.horizon_ns:
            return None
        request_id = self._next_id
        self._next_id += 1
        self._n_issued += 1
        session.attempts = 0
        request = Request(
            request_id=request_id,
            model=session.model,
            arrival_ns=arrival_ns,
            seq_len=self._seq_len(session, request_id),
        )
        self._by_request_id[request_id] = session
        return request

    # -- engine-facing protocol ----------------------------------------------------
    def start(self) -> Tuple[Request, ...]:
        """Initial arrivals: every session thinks once, then issues."""
        requests = []
        for session in self._sessions:
            request = self._issue(session, self._think_ns(session))
            if request is not None:
                requests.append(request)
        return tuple(requests)

    def on_complete(self, request_id: int, finish_ns: float) -> Optional[Request]:
        """The feedback edge: completion unblocks the session."""
        session = self._by_request_id.pop(request_id)
        return self._issue(session, finish_ns + self._think_ns(session))

    def on_reject(self, request_id: int, now_ns: float) -> RejectionOutcome:
        """One admission rejection: retry with backoff, or drop and move on."""
        session = self._by_request_id[request_id]
        session.attempts += 1
        retry = self._population.retry
        if retry is not None and session.attempts <= retry.max_retries:
            retry_at = now_ns + retry.backoff_ns(session.attempts)
            if retry_at <= self._population.horizon_ns:
                return RejectionOutcome(
                    retry_at_ns=retry_at, attempts=session.attempts
                )
        # Give up on this request: the session observes the rejection
        # (the cooldown round trip), thinks, and moves on.
        self._by_request_id.pop(request_id)
        cooldown_ns = self._population.reject_cooldown_ms * 1e6
        delay_ns = max(self._think_ns(session), cooldown_ns)
        return RejectionOutcome(
            attempts=session.attempts,
            next_request=self._issue(session, now_ns + delay_ns),
        )


def estimated_saturation_clients(
    cluster: "Cluster",
    models: Optional[Sequence[str]] = None,
    think_time_ms: float = 5.0,
) -> float:
    """Analytic saturation concurrency of a closed-loop population.

    Classic closed-network first-order bound: each model's prefill hosts
    (its service table's ``hosts``) are kept
    busy by ``hosts * (think + service) / service`` sessions, where
    ``service`` is the batch-1 floor on the model's best chip.  Summed
    over models (sessions round-robin).  Replicated placements share
    chips between models, so this is an optimistic (upper) knee estimate
    — the empirical sweep in ``bench_admission.py`` lands at or below it.
    """
    names = tuple(models) if models else cluster.models
    total = 0.0
    for model in names:
        service_ns = cluster.reference_latency_ns(model)
        hosts = len(cluster.service_table(model).hosts)
        total += hosts * (1.0 + think_time_ms * 1e6 / service_ns)
    return total
