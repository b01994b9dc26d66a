"""Served requests as columns: the one record a run's completions land in.

A :class:`ServedColumns` holds the served requests as a
:class:`~repro.serve.traces.TraceColumns` in ``(arrival_ns, request_id)``
order, plus outcome columns stored once per landed *row*.  A row is a
prefill batch (chip, batch size, dispatch and finish instants, energy
share and padded length are fixed per batch) or one request finishing
its decode loop, whose row adds first-token time, KV bytes and KV
overflow.  Each served request names its row.

The record reads as a ``Sequence[ServedRequest]``, the way
``TraceColumns`` reads as a ``Sequence[Request]``: indexing and
iteration build :class:`ServedRequest` objects on demand.  The exact
reductions every reader shares live here too: :func:`ordered_sum` and
``_percentiles_from_sorted``.
"""

from __future__ import annotations

import dataclasses
from itertools import chain
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serve.traces import Request, TraceColumns


@dataclasses.dataclass(frozen=True)
class ServedRequest:
    """One request's journey through the cluster.

    ``seq_len`` is the request's own token count and ``padded_seq_len``
    the length its batch actually ran at (its seqlen bucket, or the batch
    max without bucketing).  Both are 0 on the native path — CNN requests
    and traces generated without a sequence-length distribution.

    When the run had an autoregressive decode loop, ``decode_tokens`` is
    the request's sampled output length (= its decode iterations),
    ``first_token_ns`` the prefill completion instant (the TTFT stamp),
    ``chip_id`` the chip of the *final* decode iteration, ``finish_ns``
    the last token's completion, and ``energy_pj`` the prefill share plus
    every decode-iteration share.  ``kv_bytes`` accumulates the request's
    paged KV-cache footprint over all its decode iterations and
    ``kv_overflow_bytes`` the part of it that spilled off-chip.  All four
    are 0 on the no-decode path.
    """

    request: Request
    chip_id: int
    batch_size: int
    dispatch_ns: float
    finish_ns: float
    energy_pj: float  # this request's share of its batch's energy
    seq_len: int = 0
    padded_seq_len: int = 0
    decode_tokens: int = 0
    first_token_ns: float = 0.0
    kv_bytes: float = 0.0
    kv_overflow_bytes: float = 0.0

    @property
    def latency_ns(self) -> float:
        """Arrival-to-finish (queueing + batching + service).

        Client-perceived: a request that was rejected and retried keeps
        its original arrival stamp, so rejection waits and backoff delay
        count against it (and against its SLO) too.
        """
        return self.finish_ns - self.request.arrival_ns

    @property
    def queue_ns(self) -> float:
        """Time spent waiting before the batch dispatched."""
        return self.dispatch_ns - self.request.arrival_ns

    @property
    def ttft_ns(self) -> float:
        """Time to first token: arrival to prefill completion.

        Without a decode loop the whole response materializes at once,
        so TTFT degenerates to the full latency — never larger than it.
        """
        if self.decode_tokens:
            return self.first_token_ns - self.request.arrival_ns
        return self.latency_ns

    @property
    def itl_ns(self) -> float:
        """Mean inter-token latency over the decode loop (0 = no decode)."""
        if not self.decode_tokens:
            return 0.0
        return (self.finish_ns - self.first_token_ns) / self.decode_tokens


#: Outcome columns, one value per row; rows of a run without a decode
#: loop stop after ``padded_seq_len``.
FIELDS = (
    "chip_id", "batch_size", "dispatch_ns", "finish_ns", "energy_pj",
    "padded_seq_len", "first_token_ns", "kv_bytes", "kv_overflow_bytes",
)
_INTS = ("chip_id", "batch_size", "padded_seq_len")


def ordered_sum(values: np.ndarray) -> float:
    """``sum(values.tolist())`` bit for bit, read in 64k-value chunks: a
    whole 1M-row column as Python floats lifts peak RSS by ~70 MB."""
    step = 1 << 16
    chunks = (values[i : i + step].tolist() for i in range(0, len(values), step))
    return sum(chain.from_iterable(chunks))


def _percentiles_from_sorted(
    ordered: Sequence[float], qs: Sequence[float]
) -> Tuple[float, ...]:
    """Linear-interpolation percentiles over an already-sorted sequence.

    One sort serves any number of quantiles.  The interpolation runs on
    Python floats, so a numpy-sorted array yields the same bits.
    """
    n = len(ordered)
    if n == 0:
        raise ValueError("cannot take a percentile of no samples")
    out = []
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if n == 1:
            out.append(float(ordered[0]))
            continue  # single sample: every quantile is that sample
        rank = q / 100.0 * (n - 1)
        lower = int(rank)
        upper = min(lower + 1, n - 1)
        frac = rank - lower
        out.append(
            float(ordered[lower]) * (1.0 - frac)
            + float(ordered[upper]) * frac
        )
    return tuple(out)


def grow(done: np.ndarray, items: list) -> np.ndarray:
    """``np.array(items)``, given ``done``: that of a prefix of ``items``."""
    new = np.array(items[len(done) :], dtype=done.dtype).reshape((-1,) + done.shape[1:])
    return np.concatenate((done, new)) if len(done) else new


class ServedColumns(Sequence[ServedRequest]):
    """A run's served requests: a request trace plus per-row outcomes.

    ``requests`` is the served :class:`TraceColumns` in ``(arrival_ns,
    request_id)`` order, ``row`` each request's row index and ``rows``
    the per-row :data:`FIELDS` columns.  ``==`` compares column-wise
    against another record (name tables recoded, as ``TraceColumns``
    does) and request for request against a tuple or list.
    """

    __slots__ = ("requests", "row", "rows")

    def __init__(self, requests: TraceColumns, row, rows) -> None:
        self.requests = requests
        self.row = row
        self.rows = rows

    @classmethod
    def land(
        cls,
        requests: TraceColumns,
        table: np.ndarray,
        rank: Optional[np.ndarray] = None,
        ordered: bool = True,
    ) -> "ServedColumns":
        """The record of landed rows over ``requests``.

        ``table`` holds one float row per row: the end of its range of
        ``requests`` (the ranges tile the requests in table order), then
        its :data:`FIELDS`.  ``rank[r]`` is row r's landing position, -1
        while it is in flight (``None``: landed in table order).
        ``ordered`` sorts by ``(arrival_ns, request_id)``, ties in landing
        order, as a stable sort of the landing sequence would; requests
        already in that order are kept as they are, uncopied.
        """
        ends = table[:, 0].astype(np.int64)
        row = np.repeat(np.arange(len(ends), dtype=np.int32), np.diff(ends, prepend=0))
        pos = None  # positions in ``requests``; None: the first len(row)
        if rank is not None and (rank < 0).any():
            pos = np.flatnonzero(rank[row] >= 0)
            row = row[pos]
        if ordered and len(row) > 1:
            at = slice(len(row)) if pos is None else pos
            arrival, rid = requests.arrival_ns[at], requests.request_id[at]
            ahead = (arrival[1:] > arrival[:-1]) | (
                (arrival[1:] == arrival[:-1]) & (rid[1:] > rid[:-1])
            )
            if not ahead.all():
                pos = np.arange(len(row)) if pos is None else pos
                landing = (pos,) if rank is None else (pos, rank[row])
                order = np.lexsort(landing + (rid, arrival))
                pos, row = pos[order], row[order]
        if pos is not None:
            requests = requests.take(pos)
        elif len(row) < len(requests):
            requests = requests[: len(row)]
        return cls(requests, row, tuple(
            col.astype(np.int64) if name in _INTS else col
            for name, col in zip(FIELDS, table[:, 1:].T)
        ))

    def column(self, name: str) -> np.ndarray:
        """One of :data:`FIELDS` per served request (a fresh array):
        ``padded_seq_len`` is 0 where ``seq_len`` is, decode fields are 0
        without a decode loop."""
        k = FIELDS.index(name)
        if k >= len(self.rows):
            return np.zeros(len(self))
        out = self.rows[k][self.row]
        if name == "padded_seq_len":
            out[self.requests.seq_len == 0] = 0
        return out

    def latency_ms(self) -> np.ndarray:
        """Arrival-to-finish latency of every served request, in ms."""
        out = self.column("finish_ns")  # in place: one transient column
        out -= self.requests.arrival_ns
        out *= 1e-6
        return out

    def mask(self, model=None, tenant=None, chips=None) -> np.ndarray:
        """Which requests match a model, a tenant and a chip-id set
        (``None`` matches all)."""
        req = self.requests
        keep = np.ones(len(self), dtype=bool)
        for codes, names, name in (
            (req.model_code, req.model_names, model),
            (req.tenant_code, req.tenant_names, tenant),
        ):
            if name is not None:
                keep &= codes == (names.index(name) if name in names else -1)
        if chips is not None:
            keep &= np.isin(self.rows[0], chips)[self.row]
        return keep

    def select(self, model=None, tenant=None) -> "ServedColumns":
        """The served requests of one model and/or tenant."""
        index = np.flatnonzero(self.mask(model, tenant))
        return ServedColumns(self.requests.take(index), self.row[index], self.rows)

    # -- Sequence[ServedRequest] -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.row)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return ServedColumns(self.requests[index], self.row[index], self.rows)
        i = range(len(self))[index]  # bounds check, negative indices
        request = self.requests[i]
        chip, size, dispatch, finish, energy, padded, *decode = (
            col[self.row[i]].item() for col in self.rows
        )
        return ServedRequest(
            request, chip, size, dispatch, finish, energy, request.seq_len,
            padded if request.seq_len else 0, request.decode_tokens, *decode,
        )

    def __iter__(self) -> Iterator[ServedRequest]:
        req = self.requests
        chip, size, dispatch, finish, energy, padded, *decode = (
            self.column(name).tolist() for name in FIELDS
        )
        return map(
            ServedRequest, req, chip, size, dispatch, finish, energy,
            req.seq_len.tolist(), padded, req.decode_tokens.tolist(), *decode,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ServedColumns):
            return (
                len(self) == len(other)
                and self.requests == other.requests
                and all(
                    np.array_equal(self.column(name), other.column(name))
                    for name in FIELDS
                )
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # array-backed

    def __repr__(self) -> str:
        return f"ServedColumns({len(self)} served)"
