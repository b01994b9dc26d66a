"""Autoregressive decode: sampled output lengths and the decode loop knobs.

PR 2 models one seqlen-bucketed inference per request.  Real LLM serving
splits that into a *prefill* pass (the whole prompt at once — exactly the
PR 2 inference) followed by an autoregressive *decode* loop: one token per
iteration, each iteration costed at the request's current context length,
with iteration-level continuous batching (completed requests leave the
batch, newly prefilled requests join).

:class:`DecodeConfig` is the single knob bundle: which distribution the
per-request output length is drawn from (the same four shapes as
:data:`repro.serve.traces.SEQLEN_DISTS`, behind the same explicit-seed
discipline on a disjoint lane of :mod:`repro.seeds`), an optional hard
cap, and the KV-page granularity decode batches pad their context to
(paged-KV attention — cost tables stay small because context lengths
quantize to page multiples).

``decode=None`` everywhere means "no decode loop" and collapses the whole
stack to PR 2 semantics byte-for-byte (golden-guarded).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro import seeds
from repro.serve.traces import SEQLEN_DISTS, sample_seqlens

#: Named output-length distributions the CLI exposes via ``--decode-dist``
#: — deliberately the same four shapes as the prompt-length samplers.
DECODE_DISTS = SEQLEN_DISTS


@dataclasses.dataclass(frozen=True)
class DecodeConfig:
    """Knobs of the autoregressive decode loop.

    Attributes
    ----------
    dist:
        Output-length distribution (:data:`DECODE_DISTS`).
    mean_tokens:
        Mean sampled output length (decode iterations per request).
    max_tokens:
        Optional hard cap on any sampled length (None = uncapped).
    page_tokens:
        KV-page granularity: a decode batch is costed at its longest
        member's context rounded up to the next page multiple, the same
        padding role seqlen buckets play for prefill.
    """

    dist: str = "fixed"
    mean_tokens: int = 32
    max_tokens: Optional[int] = None
    page_tokens: int = 16

    def __post_init__(self) -> None:
        if self.dist not in DECODE_DISTS:
            raise ValueError(
                f"unknown decode dist {self.dist!r}; available: {DECODE_DISTS}"
            )
        if self.mean_tokens < 1:
            raise ValueError(
                f"decode mean_tokens must be >= 1, got {self.mean_tokens}"
            )
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError(
                f"decode max_tokens must be >= 1, got {self.max_tokens}"
            )
        if self.page_tokens < 1:
            raise ValueError(
                f"decode page_tokens must be >= 1, got {self.page_tokens}"
            )


def sample_decode_lens(
    config: DecodeConfig,
    n: int,
    seed: int = 0,
    trace_kind: str = "poisson",
) -> Tuple[int, ...]:
    """Draw ``n`` per-request output lengths on the decode seed lane.

    ``seed`` is the stream's arrival seed, as given to ``make_trace``;
    the lengths draw on its decode lane (:func:`repro.seeds.decode`).

    Reuses the seqlen samplers (same shapes, same mean semantics), clamps
    to ``max_tokens`` and floors at 1 — a transformer request with a
    decode loop always produces at least one decode iteration.
    """
    lens = sample_seqlens(
        config.dist,
        n,
        config.mean_tokens,
        seed=seeds.decode(seed),
        trace_kind=trace_kind,
    )
    cap = config.max_tokens
    if cap is not None:
        lens = tuple(min(v, cap) for v in lens)
    return tuple(max(1, v) for v in lens)


def page_round(ctx_len: int, page_tokens: int) -> int:
    """Round a context length up to the next KV-page multiple."""
    return ((ctx_len + page_tokens - 1) // page_tokens) * page_tokens
