"""Device variation and noise models for the charge-domain simulator.

The paper characterises the in-charge computing array under PVT variation
with 2 000 Monte-Carlo runs at the TT corner and room temperature, reporting
a 3-sigma MAC-voltage offset of 2.25 mV against an LSB of 3.52 mV.  The
:class:`VariationModel` below carries every stochastic knob of the behavioral
simulation; its defaults are calibrated so the end-to-end statistics land on
the paper's figures (see ``tests/test_experiments_fig6.py``).

Error mechanisms modeled
------------------------
* **Local capacitor mismatch** — each 2 fF MOM unit capacitor deviates by a
  zero-mean Gaussian relative error; mismatch is *static* per fabricated
  array instance, so a model samples one mismatch map and reuses it.  A
  Monte-Carlo trial that reads one compute bar draws, per row, one sum for
  each eDAC group's units outside the bar
  (:meth:`VariationModel.group_capacitances_from`) instead of those units.
* **Global process corner** — TT/FF/SS shift all capacitors and VTC gain
  systematically.
* **Charge injection / clock feed-through** — each switching event injects a
  small voltage offset onto the shared node.
* **kT/C sampling noise** — thermal noise of every charge-sharing event,
  derived from the participating capacitance.
* **VTC gain error and jitter** — affect the time-domain accumulation.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import constants


class Corner(enum.Enum):
    """Process corner of a Monte-Carlo instance."""

    TT = "tt"
    FF = "ff"
    SS = "ss"

    @property
    def capacitance_scale(self) -> float:
        """Systematic multiplicative shift of all capacitances."""
        return _CORNER_CAP_SCALE[self]

    @property
    def vtc_gain_scale(self) -> float:
        """Systematic multiplicative shift of VTC conversion gain."""
        return _CORNER_VTC_SCALE[self]


_CORNER_CAP_SCALE = {Corner.TT: 1.0, Corner.FF: 0.97, Corner.SS: 1.03}
_CORNER_VTC_SCALE = {Corner.TT: 1.0, Corner.FF: 1.04, Corner.SS: 0.96}

#: Smallest unit capacitor, in units of the nominal: the mismatch clip.
_UNIT_CAP_FLOOR = 0.1
#: Group sums are drawn only where that clip is at least this many sigma out.
_GROUP_SUM_CLIP_SIGMAS = 10.0


@dataclasses.dataclass(frozen=True)
class VariationModel:
    """Stochastic parameters of one fabricated (simulated) instance.

    Parameters
    ----------
    cap_mismatch_sigma:
        Relative 1-sigma local mismatch of a unit capacitor.  MOM capacitors
        in 28 nm match to a few tenths of a percent per unit; the default is
        calibrated against Fig. 6(d).
    charge_injection_sigma_volt:
        1-sigma voltage offset injected per charge-sharing event on the
        shared node (switch charge injection + clock feed-through).
    enable_ktc_noise:
        Include kT/C thermal noise on every charge share.
    vtc_gain_sigma:
        Relative 1-sigma mismatch of each VTC's voltage-to-time gain.
    vtc_jitter_sigma_s:
        RMS timing jitter per VTC stage, in seconds.
    comparator_offset_sigma_volt:
        Input-referred offset of the VTC threshold comparator.
    corner:
        Global process corner.
    temperature_c:
        Junction temperature; enters through a small linear gain drift.
    """

    cap_mismatch_sigma: float = 0.010
    charge_injection_sigma_volt: float = 0.60e-3
    enable_ktc_noise: bool = True
    vtc_gain_sigma: float = 0.0004
    vtc_jitter_sigma_s: float = 0.07e-12
    comparator_offset_sigma_volt: float = 0.15e-3
    corner: Corner = Corner.TT
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if self.cap_mismatch_sigma < 0.0:
            raise ValueError("cap_mismatch_sigma must be non-negative")
        if self.charge_injection_sigma_volt < 0.0:
            raise ValueError("charge_injection_sigma_volt must be non-negative")
        if self.vtc_gain_sigma < 0.0 or self.vtc_jitter_sigma_s < 0.0:
            raise ValueError("VTC variation parameters must be non-negative")
        if self.comparator_offset_sigma_volt < 0.0:
            raise ValueError("comparator_offset_sigma_volt must be non-negative")

    # -- factory helpers -----------------------------------------------------
    @classmethod
    def ideal(cls) -> "VariationModel":
        """A noiseless instance: every error mechanism switched off."""
        return cls(
            cap_mismatch_sigma=0.0,
            charge_injection_sigma_volt=0.0,
            enable_ktc_noise=False,
            vtc_gain_sigma=0.0,
            vtc_jitter_sigma_s=0.0,
            comparator_offset_sigma_volt=0.0,
        )

    @classmethod
    def typical(cls, corner: Corner = Corner.TT, temperature_c: float = 25.0) -> "VariationModel":
        """The calibrated default instance at a given corner/temperature."""
        return cls(corner=corner, temperature_c=temperature_c)

    # -- sampling ------------------------------------------------------------
    # Every capacitor and charge-share draw is a transform of standard
    # normals.  The ``*_from`` methods read those normals from a batch's
    # :class:`Normals` block, sized by the ``*_draws`` counts, which alone
    # decide whether a bank draws at all.  ``sample_unit_capacitors`` and
    # ``charge_injection`` are the same transforms on a batch of one drawn
    # from ``rng``, and draw the same numbers as ``rng.normal`` would.
    def mismatch_draws(self, n: int) -> int:
        """Standard normals that ``n`` unit capacitors or group sums draw."""
        return n if self.cap_mismatch_sigma > 0.0 else 0

    def ktc_draws(self, n: int) -> int:
        """Standard normals that the kT/C noise of ``n`` charge shares draws."""
        return n if self.enable_ktc_noise else 0

    def injection_draws(self, n: int) -> int:
        """Standard normals that ``n`` switching events' injection draws."""
        return n if self.charge_injection_sigma_volt > 0.0 else 0

    def share_noise_draws(self, n: int) -> int:
        """Standard normals that one bank of ``n`` charge shares draws: its
        kT/C noise, then its charge injection."""
        return self.ktc_draws(n) + self.injection_draws(n)

    def unit_capacitors_from(self, shape: Tuple[int, ...], normals: Normals) -> np.ndarray:
        """A (k, *shape) map of unit capacitances (farads), one per batch row."""
        nominal = constants.CU_FARAD * self.corner.capacitance_scale
        if not self.mismatch_draws(int(np.prod(shape))):
            return np.full((normals.k,) + tuple(shape), nominal)
        # In place on the batch's own block: no map-sized temporaries.
        caps = normals.take(shape)
        caps *= self.cap_mismatch_sigma
        caps += 1.0
        # Capacitance cannot go negative: clip the far tail at 0.1 units.
        np.maximum(caps, _UNIT_CAP_FLOOR, out=caps)
        caps *= nominal
        return caps

    def group_capacitances_from(
        self, counts: np.ndarray, n_rows: int, normals: Normals
    ) -> np.ndarray:
        """Per batch row and row, the total capacitance (farads) of each
        group of ``counts[j]`` unit capacitors; shape ``(k, n_rows, len(counts))``.

        ``n`` iid ``N(1, sigma)`` units sum to ``N(n, sigma * sqrt(n))``, so
        one draw per group stands for ``n`` unit capacitors.  The sum ignores
        the per-unit clip at 0.1 units, which sits ``0.9 / sigma`` standard
        deviations out: 90 sigma at the default ``sigma = 0.01``, where the
        unclipped sum is exact to any sample size a simulation can draw.  A
        ``sigma`` that puts the clip closer than 10 standard deviations is
        refused.
        """
        counts = np.asarray(counts, dtype=float)
        nominal = constants.CU_FARAD * self.corner.capacitance_scale
        shape = (n_rows, counts.size)
        if not self.mismatch_draws(n_rows * counts.size):
            return np.broadcast_to(counts * nominal, (normals.k,) + shape).copy()
        if (1.0 - _UNIT_CAP_FLOOR) / self.cap_mismatch_sigma < _GROUP_SUM_CLIP_SIGMAS:
            raise ValueError(
                f"cap_mismatch_sigma {self.cap_mismatch_sigma} puts the unit "
                f"capacitor clip within {_GROUP_SUM_CLIP_SIGMAS:g} sigma; group "
                "sums would not match sample_unit_capacitors"
            )
        # Flat over (rows, groups), with the per-group factors tiled to match:
        # the same products, without a short inner loop per row.
        sums = normals.take((n_rows * counts.size,))
        sums *= np.tile(self.cap_mismatch_sigma * nominal * np.sqrt(counts), n_rows)
        sums += np.tile(counts * nominal, n_rows)
        return sums.reshape((normals.k,) + shape)

    def charge_injection_from(self, n: int, normals: Normals) -> np.ndarray:
        """(k, n) voltage offsets injected by one bank of n switching events."""
        if not self.injection_draws(n):
            return np.zeros((normals.k, n))
        return normals.take((n,)) * self.charge_injection_sigma_volt

    def ktc_noise_from(self, total_capacitance_farad: np.ndarray, normals: Normals) -> np.ndarray:
        """(k, n) kT/C noise of charge shares with the given (n,) or (k, n)
        total capacitances."""
        total = np.asarray(total_capacitance_farad, dtype=float)
        n = total.shape[-1]
        if not self.ktc_draws(n):
            return np.zeros((normals.k, n))
        return normals.take((n,)) * np.sqrt(constants.KT_JOULE / total)

    def sample_unit_capacitors(
        self, shape: Tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw a static map of unit capacitances (farads) of given shape."""
        normals = Normals.draw([rng], self.mismatch_draws(int(np.prod(shape))))
        return self.unit_capacitors_from(shape, normals)[0]

    def charge_injection(
        self, shape: Tuple[int, ...], rng: np.random.Generator
    ) -> np.ndarray:
        """Voltage offsets injected by one bank of switching events."""
        n = int(np.prod(shape))
        normals = Normals.draw([rng], self.injection_draws(n))
        return self.charge_injection_from(n, normals).reshape(shape)

    def sample_vtc_gains(
        self, count: int, nominal_gain_s_per_volt: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Static per-VTC conversion gains (seconds per volt)."""
        nominal = nominal_gain_s_per_volt * self.corner.vtc_gain_scale
        nominal *= 1.0 + 2e-4 * (self.temperature_c - 25.0)
        if self.vtc_gain_sigma == 0.0:
            return np.full(count, nominal)
        return nominal * rng.normal(1.0, self.vtc_gain_sigma, size=count)

    def sample_vtc_offsets(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Static input-referred comparator offsets (volts) per VTC."""
        if self.comparator_offset_sigma_volt == 0.0:
            return np.zeros(count)
        return rng.normal(0.0, self.comparator_offset_sigma_volt, size=count)

    def vtc_jitter(self, shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Per-conversion timing jitter (seconds)."""
        if self.vtc_jitter_sigma_s == 0.0:
            return np.zeros(shape)
        return rng.normal(0.0, self.vtc_jitter_sigma_s, size=shape)


class Normals:
    """A batch's standard normals, handed out bank by bank.

    Row ``i`` of the (k, n) block holds batch member ``i``'s draws in the
    order its generator made them; :meth:`take` returns the next bank of
    every row as a (k, *shape) view, which the caller may overwrite.  So a
    batch kernel that takes its banks in the order a single read drew them
    reproduces k single reads bit for bit.
    """

    def __init__(self, block: np.ndarray) -> None:
        self._block = block
        self._at = 0

    @classmethod
    def draw(cls, rngs: Sequence[np.random.Generator], n: int) -> "Normals":
        """Draw ``n`` standard normals from each generator, one row each."""
        block = np.empty((len(rngs), n))
        for row, rng in zip(block, rngs):
            rng.standard_normal(out=row)
        return cls(block)

    @property
    def k(self) -> int:
        return self._block.shape[0]

    def take(self, shape: Tuple[int, ...]) -> np.ndarray:
        n = int(np.prod(shape))
        bank = self._block[:, self._at : self._at + n]
        self._at += n
        return bank.reshape((self.k,) + tuple(shape))


def make_rng(seed: Optional[int]) -> np.random.Generator:
    """Central RNG factory so that every module seeds the same way."""
    return np.random.default_rng(seed)
