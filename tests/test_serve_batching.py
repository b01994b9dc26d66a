"""Dynamic batching policy and per-slot row queues."""

import pytest

from repro.serve import BatchingPolicy
from repro.serve.batching import ModelQueue


def _queue(arrivals, seq_lens=None, buckets=()):
    """A queue over rows 0..n-1 of these arrival and seq_len columns."""
    seq_lens = [0] * len(arrivals) if seq_lens is None else list(seq_lens)
    return ModelQueue(list(arrivals), seq_lens, buckets)


class TestPolicy:
    def test_defaults(self):
        policy = BatchingPolicy()
        assert policy.max_batch_size == 8
        assert policy.window_ns == pytest.approx(200_000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingPolicy(window_ns=-1.0)


class TestModelQueue:
    def test_empty_queue_is_never_ready(self):
        queue = _queue([])
        assert not queue.ready(1e9, BatchingPolicy())
        with pytest.raises(IndexError):
            queue.pop_batch(0.0, BatchingPolicy())
        with pytest.raises(IndexError):
            queue.oldest_arrival_ns

    def test_full_batch_is_ready_immediately(self):
        policy = BatchingPolicy(max_batch_size=2, window_ns=1e9)
        queue = _queue([0.0, 0.0])
        queue.push(0)
        assert not queue.ready(0.0, policy)
        queue.push(1)
        assert queue.ready(0.0, policy)

    def test_window_expiry_makes_partial_batch_ready(self):
        policy = BatchingPolicy(max_batch_size=8, window_ns=100.0)
        queue = _queue([50.0])
        queue.push(0)
        assert not queue.ready(149.0, policy)
        assert queue.ready(queue.window_deadline_ns(policy), policy)
        assert queue.window_deadline_ns(policy) == pytest.approx(150.0)

    def test_zero_window_disables_batching_delay(self):
        policy = BatchingPolicy(max_batch_size=8, window_ns=0.0)
        queue = _queue([5.0])
        queue.push(0)
        assert queue.ready(5.0, policy)

    def test_pop_is_fifo_and_capped(self):
        policy = BatchingPolicy(max_batch_size=2, window_ns=0.0)
        queue = _queue([0.0, 1.0, 2.0])
        for row in range(3):
            queue.push(row)
        assert queue.pop_batch(10.0, policy) == ([0, 1], 0)
        assert len(queue) == 1
        assert queue.oldest_arrival_ns == 2.0
        assert queue.pop_batch(11.0, policy) == ([2], 0)

    def test_reads_rows_appended_after_construction(self):
        # A closed loop appends rows to the run's columns mid-run; the
        # queue reads them through the same lists.
        arrivals, seq_lens = [10.0], [0]
        queue = ModelQueue(arrivals, seq_lens)
        queue.push(0)
        arrivals.append(40.0)
        seq_lens.append(0)
        queue.push(1)
        policy = BatchingPolicy(max_batch_size=8, window_ns=100.0)
        assert queue.window_deadline_ns(policy) == 110.0
        assert queue.pop_batch(110.0, policy) == ([0, 1], 0)
