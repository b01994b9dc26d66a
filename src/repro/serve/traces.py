"""Synthetic request-arrival traces for the serving simulator.

Every generator returns a :class:`TraceColumns`: a time-sorted trace held
as columns (arrival times, model codes, sequence lengths, decode lengths,
request ids, tenant codes) that reads as a sequence of :class:`Request`
records, built on demand.  The only randomness in the whole serving stack
lives here, behind an explicit seed, so a (trace, cluster, policy) triple
replays bit-identically.

Four traffic shapes cover the classic serving regimes:

* :func:`poisson_trace` — memoryless arrivals at a constant mean rate, the
  standard open-loop load model;
* :func:`bursty_trace` — a two-state Markov-modulated Poisson process that
  alternates burst/calm phases around the same mean rate (tail-latency
  stressor);
* :func:`diurnal_trace` — a sinusoidally-modulated rate via Lewis-Shedler
  thinning (day/night traffic compressed into the simulated horizon);
* :func:`uniform_trace` / :func:`fixed_trace` — deterministic, replayable
  arrival lists for regression tests and apples-to-apples comparisons.

Poisson and diurnal arrivals draw their exponential gaps in chunks of at
most :data:`_ARRIVAL_CHUNK` and add them with ``np.cumsum``; the chunk
size never changes a trace.

For LLM workloads, requests additionally carry a per-request sequence
length (``Request.seq_len``; 0 means "the model's native shape" — the
CNN / legacy path).  :func:`sample_seqlens` draws lengths from one of the
:data:`SEQLEN_DISTS` shapes (``fixed`` / ``uniform`` / ``lognormal`` /
``longtail``) behind the same explicit-seed discipline as the arrival
generators, and :func:`with_seqlens` attaches them to a trace.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np


@dataclasses.dataclass(frozen=True)
class Request:
    """One inference request entering the cluster.

    ``seq_len`` is the request's own token count; 0 is the sentinel for
    "the model's native shape" (all CNN requests, and transformer traces
    generated without a sequence-length distribution).  ``tenant`` names
    the workload the request belongs to; the empty string is the
    sentinel for untagged single-workload traffic (the legacy path —
    every generator here produces untagged requests, and
    ``repro.serve.tenancy`` tags them per tenant).  ``decode_tokens`` is
    the request's sampled output length — the number of autoregressive
    decode iterations after prefill; 0 is the sentinel for "no decode
    loop" (the one-shot PR 2 semantics every generator here produces;
    ``repro.serve.decode`` attaches sampled lengths).
    """

    request_id: int
    model: str
    arrival_ns: float
    seq_len: int = 0
    tenant: str = ""
    decode_tokens: int = 0

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("request model must be non-empty")
        if self.arrival_ns < 0:
            raise ValueError("arrival time must be non-negative")
        if self.seq_len < 0:
            raise ValueError("seq_len must be non-negative")
        if self.decode_tokens < 0:
            raise ValueError("decode_tokens must be non-negative")


def _first_true(mask: np.ndarray) -> int:
    """Index of the first set element of a boolean column, or -1."""
    return int(mask.argmax()) if mask.any() else -1


def _recode(
    codes: np.ndarray, names: Sequence[str], index: Dict[str, int]
) -> np.ndarray:
    """Re-express codes into ``names`` as codes into the ``index`` table."""
    lookup = np.array([index.get(name, -1) for name in names], dtype=np.int32)
    return lookup[codes] if len(lookup) else codes.astype(np.int32)


#: The columns of a :class:`TraceColumns`, in constructor order.
_COLUMNS = (
    "arrival_ns",
    "model_code",
    "model_names",
    "seq_len",
    "decode_tokens",
    "request_id",
    "tenant_code",
    "tenant_names",
)


class TraceColumns(Sequence[Request]):
    """A request trace stored as columns (struct of arrays).

    ``arrival_ns`` is float64; ``model_code`` / ``tenant_code`` index the
    ``model_names`` / ``tenant_names`` tables; ``seq_len``,
    ``decode_tokens`` and ``request_id`` are int64.  Read as a
    ``Sequence[Request]``: an int index builds that one :class:`Request`,
    a slice returns a column view, iteration builds each request in turn,
    and ``==`` compares request for request against any request sequence.

    Construction applies the four :class:`Request` checks to whole
    columns, raising the message the first offending request would.  The
    columns are the only representation: a trace built from existing
    requests (:meth:`from_requests`) copies their fields, and every read
    builds fresh objects.
    """

    __slots__ = _COLUMNS

    def __init__(
        self,
        arrival_ns: Iterable[float],
        model_code: Iterable[int],
        model_names: Sequence[str],
        seq_len: Optional[Iterable[int]] = None,
        decode_tokens: Optional[Iterable[int]] = None,
        request_id: Optional[Iterable[int]] = None,
        tenant_code: Optional[Iterable[int]] = None,
        tenant_names: Sequence[str] = ("",),
    ) -> None:
        arrival = np.asarray(arrival_ns, dtype=np.float64)
        n = len(arrival)

        def column(values, dtype):
            if values is None:
                return np.zeros(n, dtype=dtype)
            out = np.asarray(values, dtype=dtype)
            if out.shape != (n,):
                raise ValueError(f"column of {len(out)} values for {n} arrivals")
            return out

        self.arrival_ns = arrival
        self.model_code = column(model_code, np.int32)
        self.model_names = tuple(model_names)
        self.seq_len = column(seq_len, np.int64)
        self.decode_tokens = column(decode_tokens, np.int64)
        self.request_id = (
            np.arange(n, dtype=np.int64)
            if request_id is None
            else column(request_id, np.int64)
        )
        self.tenant_code = column(tenant_code, np.int32)
        self.tenant_names = tuple(tenant_names)
        for codes, names, what in (
            (self.model_code, self.model_names, "model"),
            (self.tenant_code, self.tenant_names, "tenant"),
        ):
            if n and (codes.min() < 0 or codes.max() >= len(names)):
                raise ValueError(f"{what} code outside its {len(names)}-name table")
        # Request.__post_init__'s checks, in its order: the first failing
        # request decides, then its first failing check.
        named = np.array([bool(m) for m in self.model_names], dtype=bool)
        checks = (
            (~named[self.model_code], "request model must be non-empty"),
            (self.arrival_ns < 0, "arrival time must be non-negative"),
            (self.seq_len < 0, "seq_len must be non-negative"),
            (self.decode_tokens < 0, "decode_tokens must be non-negative"),
        )
        failed = [
            (_first_true(mask), k)
            for k, (mask, _) in enumerate(checks)
            if mask.any()
        ]
        if failed:
            raise ValueError(checks[min(failed)[1]][1])

    @classmethod
    def _of(cls, *columns) -> "TraceColumns":
        """Assemble already-checked columns (in :data:`_COLUMNS` order)."""
        self = cls.__new__(cls)
        for name, value in zip(_COLUMNS, columns):
            setattr(self, name, value)
        return self

    def _columns(self) -> tuple:
        return tuple(getattr(self, name) for name in _COLUMNS)

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "TraceColumns":
        """The columns of a request sequence, in its order."""
        reqs = tuple(requests)
        models: Dict[str, int] = {}
        tenants: Dict[str, int] = {}
        n = len(reqs)
        return cls._of(
            np.fromiter((r.arrival_ns for r in reqs), np.float64, n),
            np.fromiter(
                (models.setdefault(r.model, len(models)) for r in reqs),
                np.int32,
                n,
            ),
            tuple(models),
            np.fromiter((r.seq_len for r in reqs), np.int64, n),
            np.fromiter((r.decode_tokens for r in reqs), np.int64, n),
            np.fromiter((r.request_id for r in reqs), np.int64, n),
            np.fromiter(
                (tenants.setdefault(r.tenant, len(tenants)) for r in reqs),
                np.int32,
                n,
            ),
            tuple(tenants) or ("",),
        )

    def replace(self, **columns) -> "TraceColumns":
        """A copy with whole columns replaced (``seq_len=...`` etc.).

        The copy is checked like a fresh trace; the columns not replaced
        are shared, not copied.
        """
        fields = dict(zip(_COLUMNS, self._columns()))
        fields.update(columns)
        return TraceColumns(**fields)

    def take(self, order: Union[np.ndarray, slice]) -> "TraceColumns":
        """The requests at positions ``order`` (an index array or a
        slice), in that order."""
        return TraceColumns._of(
            *(
                col if isinstance(col, tuple) else col[order]
                for col in self._columns()
            )
        )

    # -- Sequence[Request] -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.arrival_ns)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return self.take(index)
        i = range(len(self))[index]  # bounds check, negative indices
        return Request(
            int(self.request_id[i]),
            self.model_names[self.model_code[i]],
            float(self.arrival_ns[i]),
            int(self.seq_len[i]),
            self.tenant_names[self.tenant_code[i]],
            int(self.decode_tokens[i]),
        )

    def __iter__(self) -> Iterator[Request]:
        models, tenants = self.model_names, self.tenant_names
        return map(
            Request,
            self.request_id.tolist(),
            [models[c] for c in self.model_code.tolist()],
            self.arrival_ns.tolist(),
            self.seq_len.tolist(),
            [tenants[c] for c in self.tenant_code.tolist()],
            self.decode_tokens.tolist(),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceColumns):
            if len(self) != len(other):
                return False
            models = {m: i for i, m in enumerate(self.model_names)}
            tenants = {t: i for i, t in enumerate(self.tenant_names)}
            return bool(
                np.array_equal(self.arrival_ns, other.arrival_ns)
                and np.array_equal(self.request_id, other.request_id)
                and np.array_equal(self.seq_len, other.seq_len)
                and np.array_equal(self.decode_tokens, other.decode_tokens)
                and np.array_equal(
                    self.model_code,
                    _recode(other.model_code, other.model_names, models),
                )
                and np.array_equal(
                    self.tenant_code,
                    _recode(other.tenant_code, other.tenant_names, tenants),
                )
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable-free but array-backed

    def __add__(self, other):
        """Concatenation, request ids kept (as ``tuple + tuple`` was)."""
        if isinstance(other, TraceColumns):
            return _concat((self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"TraceColumns({len(self)} requests, models={self.model_names}, "
            f"tenants={self.tenant_names})"
        )


def as_columns(trace: Iterable[Request]) -> TraceColumns:
    """``trace`` itself if it is columnar, else its requests' columns."""
    if isinstance(trace, TraceColumns):
        return trace
    return TraceColumns.from_requests(trace)


def _concat(traces: Sequence[TraceColumns]) -> TraceColumns:
    """Concatenate traces over the sorted union of their name tables.

    Codes in the result are ranks in name order, so sorting by code sorts
    by name.
    """
    models = tuple(sorted({m for t in traces for m in t.model_names}))
    tenants = tuple(sorted({m for t in traces for m in t.tenant_names})) or ("",)
    model_index = {m: i for i, m in enumerate(models)}
    tenant_index = {m: i for i, m in enumerate(tenants)}

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.zeros(0, dtype)

    return TraceColumns._of(
        cat([t.arrival_ns for t in traces], np.float64),
        cat(
            [_recode(t.model_code, t.model_names, model_index) for t in traces],
            np.int32,
        ),
        models,
        cat([t.seq_len for t in traces], np.int64),
        cat([t.decode_tokens for t in traces], np.int64),
        cat([t.request_id for t in traces], np.int64),
        cat(
            [_recode(t.tenant_code, t.tenant_names, tenant_index) for t in traces],
            np.int32,
        ),
        tenants,
    )


#: Most exponential gaps drawn per NumPy call.  Draws are consumed in
#: stream order, so the chunk size never changes a trace.
_ARRIVAL_CHUNK = 1 << 16


def _poisson_arrivals(
    rng: np.random.Generator, mean_gap_ns: float, horizon_ns: float
) -> np.ndarray:
    """Arrival times ``t_k = t_(k-1) + Exp(mean_gap_ns)`` below the horizon.

    Element for element the loop ``t = exp(); while t < horizon: emit t;
    t += exp()``: a bulk exponential draw equals the scalar draws in
    order, and ``np.cumsum`` adds left to right, continuing each chunk
    from the previous chunk's last time.
    """
    expected = horizon_ns / mean_gap_ns
    size = max(1, min(_ARRIVAL_CHUNK, int(expected + 4.0 * math.sqrt(expected)) + 16))
    parts = []
    t = 0.0
    while True:
        gaps = rng.exponential(mean_gap_ns, size)
        gaps[0] += t
        times = np.cumsum(gaps)
        end = int(np.searchsorted(times, horizon_ns))
        if end < size:
            parts.append(times[:end])
            return np.concatenate(parts)
        parts.append(times)
        t = float(times[-1])


def _package(model: str, arrivals_ns: np.ndarray) -> TraceColumns:
    """One model's trace over time-sorted arrivals, numbered from 0."""
    return TraceColumns(arrivals_ns, None, (model,))


def poisson_trace(
    model: str, rps: float, duration_s: float, seed: int = 0
) -> TraceColumns:
    """Memoryless arrivals: exponential inter-arrival times at rate ``rps``."""
    _check_rate(rps, duration_s)
    rng = np.random.default_rng(seed)
    return _package(model, _poisson_arrivals(rng, 1e9 / rps, duration_s * 1e9))


def bursty_trace(
    model: str,
    rps: float,
    duration_s: float,
    seed: int = 0,
    burstiness: float = 0.8,
    mean_dwell_s: float = 0.01,
) -> TraceColumns:
    """Two-state Markov-modulated Poisson process around mean rate ``rps``.

    The rate alternates between ``rps * (1 + burstiness)`` (burst) and
    ``rps * (1 - burstiness)`` (calm) with exponentially distributed dwell
    times, so the long-run mean stays ``rps`` while short windows see up to
    ``1 + burstiness`` times the load.
    """
    _check_rate(rps, duration_s)
    if not 0.0 <= burstiness < 1.0:
        raise ValueError("burstiness must be in [0, 1)")
    if not mean_dwell_s > 0:
        # A zero dwell ends every phase where it starts: the loop below
        # would never advance.
        raise ValueError("mean_dwell_s must be positive")
    rng = np.random.default_rng(seed)
    horizon_ns = duration_s * 1e9
    dwell_ns = mean_dwell_s * 1e9
    rates = (rps * (1.0 + burstiness), rps * (1.0 - burstiness))
    arrivals = []
    t = 0.0
    state = 0
    while t < horizon_ns:
        phase_end = min(horizon_ns, t + rng.exponential(dwell_ns))
        rate = rates[state]
        if rate > 0.0:
            gap_ns = 1e9 / rate
            t += rng.exponential(gap_ns)
            while t < phase_end:
                arrivals.append(t)
                t += rng.exponential(gap_ns)
        t = phase_end
        state = 1 - state
    return _package(model, np.array(arrivals, dtype=np.float64))


def diurnal_trace(
    model: str,
    rps: float,
    duration_s: float,
    seed: int = 0,
    amplitude: float = 0.5,
    period_s: float = 0.1,
    phase: float = 0.0,
) -> TraceColumns:
    """Sinusoidal rate ``rps * (1 + amplitude * sin)`` via thinning.

    Lewis-Shedler thinning: sample a homogeneous Poisson stream at the peak
    rate and accept each arrival with probability ``rate(t) / peak``.  A
    24-hour cycle is compressed into ``period_s`` of simulated time.

    ``SeedSequence(seed).spawn(2)`` gives two child streams: the first
    draws the candidates' exponential gaps, the second one acceptance
    uniform per candidate, both in bulk.  Each stream is consumed in
    order, so the trace does not depend on how the draws are chunked.

    ``phase`` shifts the sinusoid by that fraction of a period (0.25 = a
    quarter day ahead) — the knob multi-region scenarios use to stagger
    each region's local daytime.  ``phase=0.0`` adds an exact ``+ 0.0``
    inside the sine argument, so a zero phase is the unshifted trace.
    """
    _check_rate(rps, duration_s)
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("amplitude must be in [0, 1]")
    if not period_s > 0:
        raise ValueError("period_s must be positive")
    gap_stream, accept_stream = np.random.SeedSequence(seed).spawn(2)
    peak = rps * (1.0 + amplitude)
    candidates = _poisson_arrivals(
        np.random.default_rng(gap_stream), 1e9 / peak, duration_s * 1e9
    )
    accept = np.random.default_rng(accept_stream).random(len(candidates))
    rate = rps * (
        1.0
        + amplitude
        * np.sin(
            2.0 * math.pi * candidates / (period_s * 1e9)
            + 2.0 * math.pi * phase
        )
    )
    return _package(model, candidates[accept <= rate / peak])


def uniform_trace(model: str, rps: float, duration_s: float) -> TraceColumns:
    """Deterministic, evenly spaced arrivals — the replayable fixed load."""
    _check_rate(rps, duration_s)
    # round, not int: float truncation of the product dropped the final
    # arrival whenever rps * duration_s landed an ULP under an integer
    # (0.29 * 100.0 -> 28.999... -> 28 requests instead of 29).
    n = round(rps * duration_s)
    gap_ns = 1e9 / rps
    horizon_ns = duration_s * 1e9
    # gap * n can land one ULP past the horizon (e.g. rps=7000 over
    # 0.125 s); clamp so the final arrival never leaves the trace window.
    return _package(
        model,
        np.minimum(gap_ns * np.arange(1, n + 1, dtype=np.float64), horizon_ns),
    )


def fixed_trace(model: str, arrivals_ns: Iterable[float]) -> TraceColumns:
    """Replay an explicit list of arrival times (nanoseconds)."""
    times = np.fromiter(map(float, arrivals_ns), dtype=np.float64)
    return _package(model, np.sort(times, kind="stable"))


def merge_traces(*traces: Iterable[Request]) -> TraceColumns:
    """Interleave traces into one stream, re-numbering requests by time.

    Requests sort by (arrival, model name, tenant name), stably, so equal
    keys keep their argument order.
    """
    merged = _concat([as_columns(t) for t in traces])
    order = np.lexsort((merged.tenant_code, merged.model_code, merged.arrival_ns))
    arrival, model_code, models, seq_len, decode_tokens, _, tenant_code, tenants = (
        merged._columns()
    )
    return TraceColumns._of(
        arrival[order],
        model_code[order],
        models,
        seq_len[order],
        decode_tokens[order],
        np.arange(len(order), dtype=np.int64),
        tenant_code[order],
        tenants,
    )


#: Named generators the CLI exposes via ``--trace``.
TRACE_KINDS = ("poisson", "bursty", "diurnal", "uniform")


def make_trace(
    kind: str, model: str, rps: float, duration_s: float, seed: int = 0
) -> TraceColumns:
    """Build a trace by name (the CLI/benchmark entry point)."""
    if kind == "poisson":
        return poisson_trace(model, rps, duration_s, seed=seed)
    if kind == "bursty":
        return bursty_trace(model, rps, duration_s, seed=seed)
    if kind == "diurnal":
        return diurnal_trace(model, rps, duration_s, seed=seed)
    if kind == "uniform":
        return uniform_trace(model, rps, duration_s)
    raise ValueError(f"unknown trace kind {kind!r}; available: {TRACE_KINDS}")


def _check_rate(rps: float, duration_s: float) -> None:
    if rps <= 0:
        raise ValueError("rps must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")


# -- per-request sequence lengths ----------------------------------------------------
#: Named sequence-length distributions the CLI exposes via ``--seqlen-dist``.
SEQLEN_DISTS = ("fixed", "uniform", "lognormal", "longtail")

#: Long-context tail probability of the ``longtail`` sampler per
#: arrival-trace kind: bursty traffic pairs with the heaviest contexts
#: (retry storms replaying long prompts), diurnal with a moderate tail,
#: steady traffic with the lightest.
_LONGTAIL_TAIL_PROB = {"bursty": 0.15, "diurnal": 0.10, "poisson": 0.06, "uniform": 0.03}


def fixed_seqlens(n: int, mean: int) -> Tuple[int, ...]:
    """Degenerate distribution: every request carries exactly ``mean``."""
    _check_seqlen_mean(mean)
    return (mean,) * n


def uniform_seqlens(n: int, mean: int, seed: int = 0) -> Tuple[int, ...]:
    """Integer-uniform lengths on ``[mean/2, 3*mean/2]`` (mean-preserving)."""
    _check_seqlen_mean(mean)
    rng = np.random.default_rng(seed)
    low = max(1, mean // 2)
    high = max(low, mean + (mean - low))  # symmetric around the mean
    return tuple(int(v) for v in rng.integers(low, high + 1, size=n))


def lognormal_seqlens(
    n: int, mean: int, seed: int = 0, sigma: float = 0.6
) -> Tuple[int, ...]:
    """Lognormal lengths with ``E[X] = mean`` (the classic prompt-length fit).

    ``mu = ln(mean) - sigma^2 / 2`` keeps the arithmetic mean at ``mean``
    while the median sits below it — most requests are short, a few carry
    long contexts.
    """
    _check_seqlen_mean(mean)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    mu = math.log(mean) - sigma * sigma / 2.0
    draws = rng.lognormal(mean=mu, sigma=sigma, size=n)
    return tuple(max(1, int(round(v))) for v in draws)


def longtail_seqlens(
    n: int,
    mean: int,
    seed: int = 0,
    trace_kind: str = "poisson",
    max_factor: float = 8.0,
) -> Tuple[int, ...]:
    """Long-tailed lengths whose tail weight tracks the arrival process.

    A mixture: most requests draw from a short lognormal body, while a
    trace-kind-specific fraction (:data:`_LONGTAIL_TAIL_PROB` — bursty
    traffic carries the most long contexts) draws a long context uniform
    on ``[2 * mean, max_factor * mean]``.  The body mean is chosen so the
    overall expectation stays ``mean``, and nothing exceeds
    ``max_factor * mean`` from the tail — the bucket table stays bounded.
    """
    _check_seqlen_mean(mean)
    try:
        tail_prob = _LONGTAIL_TAIL_PROB[trace_kind]
    except KeyError:
        raise ValueError(
            f"unknown trace kind {trace_kind!r}; available: {TRACE_KINDS}"
        ) from None
    if max_factor <= 2.0:
        raise ValueError("max_factor must exceed the 2x-mean tail floor")
    rng = np.random.default_rng(seed)
    tail_mean = (2.0 + max_factor) / 2.0 * mean
    body_mean = (mean - tail_prob * tail_mean) / (1.0 - tail_prob)
    if body_mean < 1.0:
        raise ValueError(
            f"max_factor {max_factor} leaves no mass for the body at mean {mean}"
        )
    sigma = 0.6
    mu = math.log(body_mean) - sigma * sigma / 2.0
    body = rng.lognormal(mean=mu, sigma=sigma, size=n)
    tail = rng.uniform(2.0 * mean, max_factor * mean, size=n)
    is_tail = rng.random(n) < tail_prob
    draws = np.where(is_tail, tail, body)
    return tuple(max(1, int(round(v))) for v in draws)


def sample_seqlens(
    dist: str,
    n: int,
    mean: int,
    seed: int = 0,
    trace_kind: str = "poisson",
) -> Tuple[int, ...]:
    """Draw ``n`` per-request sequence lengths by distribution name."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if dist == "fixed":
        return fixed_seqlens(n, mean)
    if dist == "uniform":
        return uniform_seqlens(n, mean, seed=seed)
    if dist == "lognormal":
        return lognormal_seqlens(n, mean, seed=seed)
    if dist == "longtail":
        return longtail_seqlens(n, mean, seed=seed, trace_kind=trace_kind)
    raise ValueError(f"unknown seqlen dist {dist!r}; available: {SEQLEN_DISTS}")


def with_seqlens(trace: Iterable[Request], seqlens: Sequence[int]) -> TraceColumns:
    """Attach one sampled sequence length to each request of a trace."""
    trace = as_columns(trace)
    if len(seqlens) != len(trace):
        raise ValueError(
            f"{len(seqlens)} seqlens for {len(trace)} requests"
        )
    return trace.replace(seq_len=seqlens)


def with_decode_lens(trace: Iterable[Request], lens: Sequence[int]) -> TraceColumns:
    """Attach one sampled output length to each request of a trace."""
    trace = as_columns(trace)
    if len(lens) != len(trace):
        raise ValueError(f"{len(lens)} decode lengths for {len(trace)} requests")
    return trace.replace(decode_tokens=lens)


def with_tenant(trace: Iterable[Request], tenant: str) -> TraceColumns:
    """Tag every request of a trace with one tenant name."""
    return as_columns(trace).replace(tenant_code=None, tenant_names=(tenant,))


def _check_seqlen_mean(mean: int) -> None:
    if mean < 1:
        raise ValueError(f"mean sequence length must be >= 1, got {mean}")
