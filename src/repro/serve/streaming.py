"""Live reads of a running simulation, with an optional progress line.

Every run lands its completions in one record, a
:class:`~repro.serve.served.ServedColumns`, whether or not it streams.
A :class:`StreamingMetrics` handed to a run (``ServingEngine.run(
stream=)`` or ``ObserveConfig(stream_metrics=)``) reads that record:
mid-run the requests served so far, afterwards ``result.served``.  Like
the event log it is an exact pass-through.  The optional progress hook
emits a rolling p99 every ``progress_every`` served requests — the
``--progress`` CLI flag wires it to stderr.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional

import numpy as np

from repro.serve.served import _percentiles_from_sorted

__all__ = ["StreamingMetrics"]


class StreamingMetrics:
    """Live reader of one serving run's served record (one run each)."""

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
        self._read: Optional[Callable] = None  # () -> ServedColumns
        self._chip_type = ()
        self._every = progress_every
        self._next_emit = progress_every
        self._progress = progress

    def _begin_run(self, read: Callable, cluster) -> Optional[Callable]:
        """Bind the run's live record; returns the progress check to call
        with the served count after each landing (None: progress off)."""
        if self._read is not None:
            raise RuntimeError(
                "a StreamingMetrics instance reads exactly one run; "
                "create a fresh one per simulation"
            )
        self._read = read
        self._chip_type = [cluster.chip_type(c) for c in range(cluster.n_chips)]
        return self._landed if self._every else None

    def _end_run(self, served) -> None:
        self._read = lambda: served

    def _landed(self, n_served: int) -> None:
        if n_served >= self._next_emit:
            self._emit(n_served)

    @property
    def n_served(self) -> int:
        return len(self._read()) if self._read is not None else 0

    def latencies_ms(
        self,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
        chip_type: Optional[str] = None,
    ) -> "np.ndarray":
        """Latency column (ms) of the matching requests served so far: an
        independent copy, safe to hold across later completions."""
        if self._read is None:
            return np.empty(0)
        served = self._read()
        chips = None if chip_type is None else [
            c for c, t in enumerate(self._chip_type) if t == chip_type
        ]
        return served.latency_ms()[served.mask(model, tenant, chips)]

    def rolling_p99_ms(self) -> float:
        """Current p99 latency over everything served so far.

        ``np.partition`` pulls the two order statistics in O(n) and the
        report's own interpolation reads them, so the final rolling
        value equals the report's p99 bit for bit.
        """
        values = self.latencies_ms()
        if not len(values):
            raise ValueError("no latencies observed yet")
        lower = int(0.99 * (len(values) - 1))
        part = np.partition(values, (lower, min(lower + 1, len(values) - 1)))
        return _percentiles_from_sorted(part, (99,))[0]

    def _emit(self, n_served: int) -> None:
        # Jump to the first boundary strictly past n_served: a single
        # large batch can cross several progress boundaries at once, and
        # advancing by exactly one period would then fire a burst of
        # back-to-back emits on the following landings.
        self._next_emit = n_served - n_served % self._every + self._every
        line = (
            f"[stream] served={n_served:>9d}  "
            f"rolling p99={self.rolling_p99_ms():.4f} ms"
        )
        if self._progress is not None:
            self._progress(line)
        else:
            print(line, file=sys.stderr)
