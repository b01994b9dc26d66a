"""Streaming (constant-memory) serving metrics for million-request runs.

A :class:`StreamingMetrics` accumulator replaces the engine's retained
``ServedRequest`` list: each completed batch lands on a per
``(model, tenant, chip type)`` cell holding a flat latency buffer plus
scalar roll-ups (energy, tokens, batches).  A million-request run
then carries one 8-byte float per request instead of one Python object —
megabytes instead of gigabytes — and :func:`repro.serve.metrics.summarize`
reads the cells through its cells adapter.

Which report numbers a streamed run shares bit for bit with a retained
one is stated once, on :mod:`repro.serve.metrics`.

The optional progress hook emits a rolling p99 every ``progress_every``
served requests — the ``--progress`` CLI flag wires it to stderr.
"""

from __future__ import annotations

import sys
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["StreamingMetrics"]


class _Cell:
    """Roll-up for one (model, tenant, chip_type) stream."""

    __slots__ = ("lat_ms", "energy_pj", "tokens", "padded", "batches")

    def __init__(self) -> None:
        self.lat_ms = array("d")
        self.energy_pj = 0.0
        self.tokens = 0
        self.padded = 0
        self.batches = 0


class StreamingMetrics:
    """Constant-memory accumulator for one serving run.

    Hand a fresh instance to :meth:`repro.serve.engine.ServingEngine.run`
    (or ``ObserveConfig(stream_metrics=...)``); the engine feeds every
    completion into it instead of materializing ``ServedRequest`` objects.
    One instance accumulates exactly one run.
    """

    def __init__(
        self,
        progress_every: int = 0,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        # 0 switches progress off; any period below 1, negative ones
        # included, would emit on every completion.
        if not (progress_every == 0 or progress_every >= 1):
            raise ValueError(
                f"progress_every must be 0 (off) or >= 1, got {progress_every!r}"
            )
        self._cells: Dict[Tuple[str, str, str], _Cell] = {}
        #: model -> smallest (arrival_ns, request_id) observed, so
        #: ``models`` reports first-arrival order exactly like the
        #: retained (arrival-sorted) path.
        self._first: Dict[str, Tuple[float, int]] = {}
        self._chip_type: Tuple[str, ...] = ()
        self._bound = False
        self.n_served = 0
        self._every = progress_every
        self._next_emit = progress_every
        self._progress = progress

    # -- engine hooks ---------------------------------------------------

    def _begin_run(self, cluster, policy) -> None:
        if self._bound:
            raise RuntimeError(
                "a StreamingMetrics instance accumulates exactly one run; "
                "create a fresh one per simulation"
            )
        self._bound = True
        self._chip_type = tuple(
            cluster.chip_type(c) for c in range(cluster.n_chips)
        )

    def _observe(self, inflight) -> None:
        """Land one completed batch (general engine path)."""
        batch = inflight.batch
        requests = batch.requests
        model = batch.model
        key = (model, requests[0].tenant, self._chip_type[inflight.chip_id])
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _Cell()
        fin = inflight.finish_ns
        lat = cell.lat_ms
        for r in requests:
            lat.append((fin - r.arrival_ns) * 1e-6)
        size = len(requests)
        cell.energy_pj += inflight.share_pj * size
        cell.batches += 1
        padded = inflight.padded
        if padded:
            for r in requests:
                if r.seq_len:
                    cell.tokens += r.seq_len
                    cell.padded += padded
        first_key = min((r.arrival_ns, r.request_id) for r in requests)
        prev = self._first.get(model)
        if prev is None or first_key < prev:
            self._first[model] = first_key
        self.n_served += size
        if self._every and self.n_served >= self._next_emit:
            self._emit()

    def _observe_block(
        self,
        key: Tuple[str, str, str],
        lat_ms: "np.ndarray",
        size: int,
        energy_pj: float,
        first_key: Optional[Tuple[float, int]] = None,
    ) -> None:
        """Land one completed native-shape batch as a latency block.

        The engine's single-slot fast path computes the batch's latency
        column vectorized; ``energy_pj`` is the batch total accumulated
        with the same ``share * size`` expression the general path uses,
        so both paths produce identical cell contents.
        """
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _Cell()
        cell.lat_ms.frombytes(lat_ms.tobytes())
        cell.energy_pj += energy_pj
        cell.batches += 1
        if first_key is not None:
            prev = self._first.get(key[0])
            if prev is None or first_key < prev:
                self._first[key[0]] = first_key
        self.n_served += size
        if self._every and self.n_served >= self._next_emit:
            self._emit()

    # -- result-facing aggregates --------------------------------------

    @property
    def models(self) -> Tuple[str, ...]:
        """Served models in order of first (arrival-sorted) appearance."""
        return tuple(sorted(self._first, key=self._first.__getitem__))

    @property
    def total_energy_pj(self) -> float:
        return sum(c.energy_pj for c in self._cells.values())

    @property
    def total_tokens(self) -> int:
        return sum(c.tokens for c in self._cells.values())

    @property
    def total_padded_tokens(self) -> int:
        return sum(c.padded for c in self._cells.values())

    @property
    def cells(self) -> Dict[Tuple[str, str, str], _Cell]:
        """The raw (model, tenant, chip_type) cells (read-only use)."""
        return self._cells

    def latencies_ms(
        self,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
        chip_type: Optional[str] = None,
    ) -> "np.ndarray":
        """Concatenated latency column (ms) across the matching cells.

        The exact latency multiset retained mode holds, in completion
        order.  Always an independent copy (``np.concatenate`` allocates):
        a view of a live ``array('d')`` cell buffer would make the next
        completion's ``append`` raise ``BufferError`` under any caller
        still holding it (progress callbacks, dashboards polling mid-run).
        """
        parts: List[np.ndarray] = [
            np.frombuffer(cell.lat_ms, dtype=np.float64)
            for (m, t, c), cell in self._cells.items()
            if (model is None or m == model)
            and (tenant is None or t == tenant)
            and (chip_type is None or c == chip_type)
        ]
        return np.concatenate(parts) if parts else np.empty(0)

    def rolling_p99_ms(self) -> float:
        """Current p99 latency over everything served so far.

        ``np.partition`` pulls the two order statistics in O(n); the
        interpolation is the exact :func:`repro.serve.metrics.percentile`
        formula, so the final rolling value equals retained-mode p99
        bit for bit.
        """
        values = self.latencies_ms()
        n = len(values)
        if n == 0:
            raise ValueError("no latencies observed yet")
        if n == 1:
            return float(values[0])
        rank = 99.0 / 100.0 * (n - 1)
        lower = int(rank)
        upper = min(lower + 1, n - 1)
        frac = rank - lower
        part = np.partition(values, (lower, upper))
        return float(part[lower]) * (1.0 - frac) + float(part[upper]) * frac

    # -- progress -------------------------------------------------------

    def _emit(self) -> None:
        # Jump to the first boundary strictly past n_served: a single
        # large batch can cross several progress boundaries at once, and
        # advancing by exactly one period would then fire a burst of
        # back-to-back emits on the following observes.
        self._next_emit = (
            self.n_served - self.n_served % self._every + self._every
        )
        line = (
            f"[stream] served={self.n_served:>9d}  "
            f"rolling p99={self.rolling_p99_ms():.4f} ms"
        )
        if self._progress is not None:
            self._progress(line)
        else:
            print(line, file=sys.stderr)
