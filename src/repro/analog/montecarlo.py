"""Monte-Carlo harness for PVT characterisation (Fig. 6(d)).

The paper runs 2 000 Monte-Carlo samples of the MAC voltage at the TT corner
and room temperature and reports the 3-sigma offset.  :func:`run_monte_carlo`
is a small generic harness: it hands each trial an independent, reproducibly
seeded RNG and collects scalar outcomes.  A :class:`BatchTrial` takes
those RNGs a chunk at a time and evaluates the chunk in one kernel.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Sequence, Union

import numpy as np

#: Trials per :meth:`BatchTrial.batch` call: a Fig. 6(d) chunk's normals
#: take 1 MB.
_TRIAL_CHUNK = 64


class BatchTrial(abc.ABC):
    """A trial that evaluates a chunk of Monte-Carlo instances at once.

    ``batch(rngs)[i]`` must equal ``trial(rngs[i])``, the trial run alone on
    that generator; a single trial is the batch of one.
    """

    @abc.abstractmethod
    def batch(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """The (len(rngs),) outcomes, trial ``i`` drawing from ``rngs[i]``."""

    def __call__(self, rng: np.random.Generator) -> float:
        return float(self.batch([rng])[0])


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
    trial: Union[BatchTrial, Callable[[np.random.Generator], float]],
    n_samples: int,
    seed: int = 0,
) -> MonteCarloResult:
    """Run ``trial`` ``n_samples`` times with independent child RNGs.

    Parameters
    ----------
    trial:
        Callable receiving a :class:`numpy.random.Generator` and returning a
        scalar metric (e.g. a MAC voltage), or a :class:`BatchTrial`, which
        receives the generators ``_TRIAL_CHUNK`` trials at a time.
    n_samples:
        Number of Monte-Carlo instances (the paper uses 2 000).
    seed:
        Root seed; each trial gets a `spawn`-derived independent stream, so
        results are reproducible yet uncorrelated across trials.

    Per trial, the harness only spawns the trial's ``SeedSequence`` child
    and builds its generator: about 20 us on a shared 2-vCPU Xeon host, a
    fifth of a 105 us Fig. 6(d) trial; the rest is ``trial`` itself.
    So build what every trial shares once, outside ``trial``, draw only
    what the metric reads, and evaluate a chunk of trials at once, as
    :func:`repro.core.array.mac_voltage_trial` does for Fig. 6(d).  Chunks
    change no sample: trial ``i`` draws from child ``i`` either way.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if isinstance(trial, BatchTrial):
        batch = trial.batch
    else:
        def batch(rngs):
            return [float(trial(rng)) for rng in rngs]
    children = np.random.SeedSequence(seed).spawn(n_samples)
    samples = np.empty(n_samples, dtype=float)
    for start in range(0, n_samples, _TRIAL_CHUNK):
        rngs = [np.random.default_rng(child) for child in children[start : start + _TRIAL_CHUNK]]
        samples[start : start + len(rngs)] = batch(rngs)
    return MonteCarloResult(samples=samples, seed=seed)
