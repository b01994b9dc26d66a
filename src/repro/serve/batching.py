"""Dynamic batching: per-model request queues and the dispatch policy.

The scheduler is the continuous-batching rule production inference servers
use: a batch dispatches to a free chip as soon as either (a) a full
``max_batch_size`` is waiting, or (b) the oldest queued request has waited
out the ``window_ns`` batching window.  Larger windows trade first-token
latency for bigger (more efficient) batches; ``max_batch_size=1`` degrades
to pure FIFO serving, which is how the engine's energy accounting is tied
back to the single-inference :class:`repro.arch.RunResult` roll-up.

Sequence-length **bucketing** rides on top for LLM traffic: when the
policy carries ``seqlen_buckets``, each request is routed to the smallest
bucket boundary covering its ``seq_len``, only same-bucket requests
co-batch, and the whole batch runs padded to the bucket boundary — the
padding waste is explicit (:attr:`Batch.padded_tokens` vs
:attr:`Batch.token_count`).  Requests with ``seq_len == 0`` (CNNs, legacy
traces) live in a single trivial native bucket and behave exactly as
before bucketing existed.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
from typing import Deque, Dict, List, Optional, Tuple

from repro.serve.traces import Request


def bucket_for(seq_len: int, buckets: Tuple[int, ...]) -> int:
    """Bucket boundary covering ``seq_len`` (0 = the native/trivial bucket).

    Requests with ``seq_len == 0`` always map to the native bucket, so CNN
    traffic is untouched by any bucket configuration.
    """
    if seq_len == 0 or not buckets:
        return 0
    index = bisect.bisect_left(buckets, seq_len)
    if index == len(buckets):
        raise ValueError(
            f"seq_len {seq_len} exceeds the largest bucket {buckets[-1]}"
        )
    return buckets[index]


def default_buckets(max_seq_len: int, min_bucket: int = 32) -> Tuple[int, ...]:
    """Power-of-two boundaries from ``min_bucket`` up to ``max_seq_len``."""
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be >= 1")
    if min_bucket < 1:
        raise ValueError("min_bucket must be >= 1")
    buckets: List[int] = []
    b = min_bucket
    while b < max_seq_len:
        buckets.append(b)
        b *= 2
    buckets.append(b)
    return tuple(buckets)


@dataclasses.dataclass(frozen=True)
class BatchingPolicy:
    """Knobs of the dynamic batcher.

    Attributes
    ----------
    max_batch_size:
        Most requests one dispatched batch may carry.
    window_ns:
        How long the oldest queued request may wait before a partial batch
        dispatches anyway (0 disables batching delay entirely).
    seqlen_buckets:
        Ascending sequence-length boundaries.  Empty (the default) keeps
        the single trivial bucket — every request co-batches and nothing
        pads, the exact pre-bucketing behavior.
    """

    max_batch_size: int = 8
    window_ns: float = 200_000.0  # 0.2 ms
    seqlen_buckets: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.window_ns < 0:
            raise ValueError("window_ns must be non-negative")
        buckets = tuple(int(b) for b in self.seqlen_buckets)
        object.__setattr__(self, "seqlen_buckets", buckets)
        if any(b < 1 for b in buckets):
            raise ValueError("bucket boundaries must be >= 1")
        if any(a >= b for a, b in zip(buckets, buckets[1:])):
            raise ValueError("bucket boundaries must be strictly ascending")


@dataclasses.dataclass(frozen=True)
class Batch:
    """One dispatched unit of work: co-scheduled requests of one model.

    ``bucket_seq_len`` is the padded sequence length the whole batch runs
    at (0 for the native bucket — the model's own shape, no padding).
    """

    model: str
    requests: Tuple[Request, ...]
    dispatch_ns: float
    bucket_seq_len: int = 0

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("batch must carry at least one request")
        if any(r.model != self.model for r in self.requests):
            raise ValueError("batch mixes models")
        if self.bucket_seq_len < 0:
            raise ValueError("bucket_seq_len must be non-negative")
        if self.bucket_seq_len and any(
            r.seq_len > self.bucket_seq_len for r in self.requests
        ):
            raise ValueError("request seq_len exceeds its batch bucket")

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def tenant(self) -> str:
        """Owning tenant ("" for untagged traffic).

        The engine keeps one queue per (tenant, model) pair, so a batch
        never mixes tenants — the first request speaks for all of them.
        """
        return self.requests[0].tenant

    @property
    def oldest_wait_ns(self) -> float:
        return self.dispatch_ns - min(r.arrival_ns for r in self.requests)

    @property
    def token_count(self) -> int:
        """Real tokens carried (0 when requests have no sequence length)."""
        return sum(r.seq_len for r in self.requests)

    @property
    def padded_seq_len(self) -> int:
        """Sequence length the whole batch actually runs at.

        The bucket boundary when bucketed; otherwise the longest request in
        the batch (the naive pad-to-batch-max rule bucketing improves on).
        0 means the model's native shape.
        """
        if self.bucket_seq_len:
            return self.bucket_seq_len
        return max(r.seq_len for r in self.requests)

    @property
    def padded_tokens(self) -> int:
        """Tokens the chip actually processes, padding included."""
        return self.padded_seq_len * self.size

    @property
    def padding_fraction(self) -> float:
        """Wasted fraction of processed tokens (0 for the native bucket)."""
        padded = self.padded_tokens
        if padded == 0:
            return 0.0
        return (padded - self.token_count) / padded


class ModelQueue:
    """Pending requests for one model, FIFO within each seqlen bucket.

    Without buckets this is the plain FIFO it always was.  With buckets,
    requests route to the smallest covering boundary; readiness still keys
    off the *globally* oldest request (so the batching-window guarantee
    holds regardless of which bucket a request landed in), and dispatch
    prefers full buckets, breaking ties toward the oldest waiting request.
    """

    def __init__(self, model: str, buckets: Tuple[int, ...] = ()) -> None:
        self.model = model
        self.buckets = tuple(buckets)
        self._pending: Dict[int, Deque[Request]] = collections.OrderedDict()
        self._size = 0
        # Hot-path caches: the engine's dispatch scan reads the oldest
        # arrival and the fullest-bucket size several times per event, so
        # both are maintained incrementally instead of re-derived from the
        # bucket deques on every read.  ``_oldest`` is None when stale
        # (recomputed lazily); ``_longest`` is always exact.
        self._oldest: Optional[float] = None
        self._longest = 0

    def __len__(self) -> int:
        return self._size

    def push(self, request: Request) -> int:
        """Enqueue one request; returns its bucket's new depth.

        The returned depth lets the engine detect the only two pushes that
        can change dispatchability — the queue waking from empty, or a
        bucket reaching the batch-size cap — without re-scanning.
        """
        if request.model != self.model:
            raise ValueError(
                f"request for {request.model!r} pushed onto {self.model!r} queue"
            )
        if request.seq_len == 0 or not self.buckets:
            bucket = 0  # inlined bucket_for fast path (the per-arrival case)
        else:
            bucket = bucket_for(request.seq_len, self.buckets)
        queue = self._pending.get(bucket)
        if queue is None:
            queue = collections.deque()
            self._pending[bucket] = queue
        queue.append(request)
        self._size += 1
        depth = len(queue)
        if depth > self._longest:
            self._longest = depth
        if self._oldest is not None and request.arrival_ns < self._oldest:
            self._oldest = request.arrival_ns
        elif self._size == 1:
            self._oldest = request.arrival_ns
        return depth

    def push_front(self, requests: "Tuple[Request, ...]") -> None:
        """Re-queue preempted requests at the *front* of their buckets.

        The requests arrive in their original dequeue order, so pushing
        them left in reverse restores each bucket's exact arrival order —
        a preempted request keeps its place in line (and its original
        arrival stamp, so its latency keeps accruing while it waits to be
        re-dispatched).
        """
        for request in reversed(requests):
            if request.model != self.model:
                raise ValueError(
                    f"request for {request.model!r} pushed onto "
                    f"{self.model!r} queue"
                )
            bucket = bucket_for(request.seq_len, self.buckets)
            queue = self._pending.setdefault(bucket, collections.deque())
            queue.appendleft(request)
            self._size += 1
            if len(queue) > self._longest:
                self._longest = len(queue)
            if self._oldest is not None and request.arrival_ns < self._oldest:
                self._oldest = request.arrival_ns
            elif self._size == 1:
                self._oldest = request.arrival_ns

    def _nonempty(self) -> List[Tuple[int, Deque[Request]]]:
        return [(b, q) for b, q in self._pending.items() if q]

    @property
    def oldest_arrival_ns(self) -> float:
        if not self._size:
            raise IndexError("queue is empty")
        if self._oldest is None:
            self._oldest = min(q[0].arrival_ns for _, q in self._nonempty())
        return self._oldest

    def ready(self, now_ns: float, policy: BatchingPolicy) -> bool:
        """Would a batch dispatch right now under this policy?"""
        if not self._size:
            return False
        if self._longest >= policy.max_batch_size:
            return True
        # Compare against the *same float expression* the engine schedules
        # its window event with, so the event firing at the deadline always
        # observes a ready queue (no one-ULP re-arm loops).
        return now_ns >= self.window_deadline_ns(policy)

    def window_deadline_ns(self, policy: BatchingPolicy) -> float:
        """When the oldest queued request's batching window expires."""
        return self.oldest_arrival_ns + policy.window_ns

    def _dispatch_bucket(self, now_ns: float, policy: BatchingPolicy) -> int:
        """Which bucket the next batch comes from.

        The batching-window guarantee comes first: once the globally
        oldest request's window has expired, its bucket dispatches even
        partially — otherwise a steady stream filling one bucket would
        starve a rare-bucket request forever.  Inside the window, full
        buckets beat partial ones (they dispatch regardless of the
        window), oldest head request first, with the smaller bucket id as
        the deterministic tiebreak.
        """
        candidates = self._nonempty()
        oldest_arrival, oldest_bucket = min(
            (q[0].arrival_ns, b) for b, q in candidates
        )
        if now_ns >= oldest_arrival + policy.window_ns:
            return oldest_bucket
        full = [
            (q[0].arrival_ns, b)
            for b, q in candidates
            if len(q) >= policy.max_batch_size
        ]
        if full:
            return min(full)[1]
        return oldest_bucket

    def pop_batch(self, now_ns: float, policy: BatchingPolicy) -> Batch:
        """Dequeue up to ``max_batch_size`` same-bucket requests."""
        if not self._size:
            raise IndexError("cannot pop a batch from an empty queue")
        if not self.buckets:
            bucket = 0  # single trivial bucket: nothing to rank
        else:
            bucket = self._dispatch_bucket(now_ns, policy)
        queue = self._pending[bucket]
        n = len(queue)
        take = policy.max_batch_size
        if n <= take:
            take = n
            requests = tuple(queue)
            queue.clear()
        else:
            requests = tuple(queue.popleft() for _ in range(take))
        self._size -= take
        if not self.buckets:
            self._oldest = queue[0].arrival_ns if queue else None
            self._longest = len(queue)
        else:
            self._oldest = None
            self._longest = max(
                (len(q) for q in self._pending.values()), default=0
            )
        return Batch(
            model=self.model,
            requests=requests,
            dispatch_ns=now_ns,
            bucket_seq_len=bucket,
        )
