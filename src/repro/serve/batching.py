"""Dynamic batching: per-slot row queues and the dispatch policy.

The scheduler is the continuous-batching rule production inference servers
use: a batch dispatches to a free chip as soon as either (a) a full
``max_batch_size`` is waiting, or (b) the oldest queued request has waited
out the ``window_ns`` batching window.  Larger windows trade first-token
latency for bigger (more efficient) batches; ``max_batch_size=1`` degrades
to pure FIFO serving, which is how the engine's energy accounting is tied
back to the single-inference :class:`repro.arch.RunResult` roll-up.

A queued request is an int row into the run's request columns; the queue
reads each row's arrival time and sequence length from those columns.

Sequence-length **bucketing** rides on top for LLM traffic: when the
policy carries ``seqlen_buckets``, each row is routed to the smallest
bucket boundary covering its ``seq_len``, only same-bucket rows co-batch,
and the whole batch runs padded to the bucket boundary — the padded
length :meth:`ModelQueue.pop_batch` returns, which the engine records per
batch next to each request's own ``seq_len``.  Rows with ``seq_len == 0``
(CNNs, legacy traces) live in a single trivial native bucket and behave
exactly as before bucketing existed.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
from typing import Deque, Dict, List, Optional, Sequence, Tuple


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


class ModelQueue:
    """Pending rows of one dispatch slot, FIFO within each seqlen bucket.

    A row indexes the run's request columns: ``arrival_ns[row]`` and
    ``seq_len[row]`` are read from the sequences the queue was built
    over, which may grow while it runs.  The engine keeps one queue per
    (tenant, model) slot, so a queue never mixes models.

    Without buckets this is a plain FIFO.  With buckets, rows route to the
    smallest covering boundary; readiness still keys off the *globally*
    oldest row (so the batching-window guarantee holds regardless of which
    bucket a row landed in), and dispatch prefers full buckets, breaking
    ties toward the oldest waiting row.
    """

    def __init__(
        self,
        arrival_ns: Sequence[float],
        seq_len: Sequence[int],
        buckets: Tuple[int, ...] = (),
    ) -> None:
        self._arrival = arrival_ns
        self._seq_len = seq_len
        self.buckets = tuple(buckets)
        self._pending: Dict[int, Deque[int]] = collections.OrderedDict()
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

    def _bucket(self, row: int) -> int:
        """The bucket boundary ``row`` routes to (0 = the native bucket)."""
        seq_len = self._seq_len[row]
        if seq_len == 0 or not self.buckets:
            return 0  # inlined bucket_for fast path (the per-arrival case)
        return bucket_for(seq_len, self.buckets)

    def _grew(self, row: int, depth: int) -> None:
        """Update the caches after ``row`` joined a bucket now ``depth`` deep."""
        self._size += 1
        if depth > self._longest:
            self._longest = depth
        arrival = self._arrival[row]
        if self._oldest is not None and arrival < self._oldest:
            self._oldest = arrival
        elif self._size == 1:
            self._oldest = arrival

    def push(self, row: int) -> int:
        """Enqueue one row; returns its bucket's new depth.

        The returned depth lets the engine detect the only two pushes that
        can change dispatchability — the queue waking from empty, or a
        bucket reaching the batch-size cap — without re-scanning.
        """
        bucket = self._bucket(row)
        queue = self._pending.get(bucket)
        if queue is None:
            queue = collections.deque()
            self._pending[bucket] = queue
        queue.append(row)
        depth = len(queue)
        self._grew(row, depth)
        return depth

    def push_front(self, rows: Sequence[int]) -> None:
        """Re-queue preempted rows at the *front* of their buckets.

        The rows arrive in their original dequeue order, so pushing them
        left in reverse restores each bucket's exact arrival order — a
        preempted request keeps its place in line (and its original
        arrival stamp, so its latency keeps accruing while it waits to be
        re-dispatched).
        """
        for row in reversed(rows):
            queue = self._pending.setdefault(
                self._bucket(row), collections.deque()
            )
            queue.appendleft(row)
            self._grew(row, len(queue))

    def _nonempty(self) -> List[Tuple[int, Deque[int]]]:
        return [(b, q) for b, q in self._pending.items() if q]

    @property
    def oldest_arrival_ns(self) -> float:
        if not self._size:
            raise IndexError("queue is empty")
        if self._oldest is None:
            arrival = self._arrival
            self._oldest = min(arrival[q[0]] for _, q in self._nonempty())
        return self._oldest

    def ready(self, now_ns: float, policy: BatchingPolicy) -> bool:
        """Would a batch dispatch right now under this policy?"""
        return bool(self._size) and self.window_wait(now_ns, policy) is None

    def window_wait(
        self, now_ns: float, policy: BatchingPolicy
    ) -> Optional[float]:
        """The window deadline a non-empty queue still waits for at
        ``now_ns``; None once a batch would dispatch (a bucket at the
        batch cap, or the window expired)."""
        if self._longest >= policy.max_batch_size:
            return None
        # Compare against the *same float expression* the engine schedules
        # its window event with, so the event firing at the deadline always
        # observes a ready queue (no one-ULP re-arm loops).
        deadline = self.window_deadline_ns(policy)
        return None if now_ns >= deadline else deadline

    def window_deadline_ns(self, policy: BatchingPolicy) -> float:
        """When the oldest queued row's batching window expires."""
        return self.oldest_arrival_ns + policy.window_ns

    def _dispatch_bucket(self, now_ns: float, policy: BatchingPolicy) -> int:
        """Which bucket the next batch comes from.

        The batching-window guarantee comes first: once the globally
        oldest row's window has expired, its bucket dispatches even
        partially — otherwise a steady stream filling one bucket would
        starve a rare-bucket request forever.  Inside the window, full
        buckets beat partial ones (they dispatch regardless of the
        window), oldest head row first, with the smaller bucket id as the
        deterministic tiebreak.
        """
        arrival = self._arrival
        candidates = self._nonempty()
        oldest_arrival, oldest_bucket = min(
            (arrival[q[0]], b) for b, q in candidates
        )
        if now_ns >= oldest_arrival + policy.window_ns:
            return oldest_bucket
        full = [
            (arrival[q[0]], b)
            for b, q in candidates
            if len(q) >= policy.max_batch_size
        ]
        if full:
            return min(full)[1]
        return oldest_bucket

    def pop_batch(
        self, now_ns: float, policy: BatchingPolicy
    ) -> Tuple[List[int], int]:
        """Dequeue up to ``max_batch_size`` same-bucket rows.

        Returns the rows, oldest first, and the sequence length the whole
        batch runs at: its bucket boundary when bucketed, otherwise its
        longest row (the naive pad-to-batch-max rule bucketing improves
        on).  0 means the model's native shape.
        """
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
            rows = list(queue)
            queue.clear()
        else:
            rows = [queue.popleft() for _ in range(take)]
        self._size -= take
        if not self.buckets:
            self._oldest = self._arrival[queue[0]] if queue else None
            self._longest = len(queue)
        else:
            self._oldest = None
            self._longest = max(
                (len(q) for q in self._pending.values()), default=0
            )
        if bucket:
            return rows, bucket
        seq_len = self._seq_len
        return rows, max(seq_len[row] for row in rows)
