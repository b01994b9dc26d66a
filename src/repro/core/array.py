"""The in-charge computing array: YOCO's "you only charge once" VMM engine.

Implements the four charge-sharing phases of Section III-A in vectorized
behavioral form, with every analog error mechanism of
:class:`~repro.analog.variation.VariationModel` applied at the node where it
physically occurs:

1. **DAC-less input conversion** — each 256-MCC row is grouped 1:1:2:...:128
   by eDAC switches; groups charge to VDD/VSS per input bit and a row-wide
   charge share settles at ``VDD * X / 256``.
2. **Multiplication with a 1-bit weight** — the RWL pulse discharges the
   unit capacitor where the stored bit is 0 and keeps it where it is 1.
3. **Parallel accumulation** — a column-wide charge share averages the 128
   row products.
4. **Weighted summation** — inside each 8-column compute bar, column ``b``
   contributes ``2^b`` unit capacitors to a final multi-column share,
   realising the shift-and-add in situ.

The ideal result of the sequence is

    V_MAC[j] = VDD * sum_i(X[i] * W[i, j]) / (256 * 128 * 255)

which the closed-form :meth:`InChargeArray.ideal_vmm_voltages` exposes for
error analysis.

Each phase is one module-level kernel over a batch.  :class:`InChargeArray`
runs them on a persistent instance for a batch of input vectors;
:func:`mac_voltage_trial` runs the same kernels for Monte-Carlo over a
chunk of trials, where every trial is a fresh instance read on one compute
bar, drawn as only the capacitances and noise that bar reads.  Every batch
draws, member by member, the numbers that one read or trial at a time
draws, so a batch returns what its members return alone, bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro import constants
from repro.analog.montecarlo import BatchTrial
from repro.analog.variation import Normals, VariationModel, make_rng
from repro.core.charge import group_index_map
from repro.core.config import ArrayConfig


@dataclasses.dataclass(frozen=True)
class ArrayDiagnostics:
    """Intermediate node voltages of one VMM, or of a batch of k with a
    leading k axis (for circuit-level analysis)."""

    input_voltages: np.ndarray  # (rows,) post-phase-1 row voltages
    column_voltages: np.ndarray  # (cols,) post-phase-3 column voltages
    mac_voltages: np.ndarray  # (n_cbs,) post-phase-4 CB outputs


#: Reads per array kernel call: a chunk's (8, 128, 256) phase-1 charge map
#: is 2 MB.
_READ_CHUNK = 8


# -- kernels shared by the array and the Monte-Carlo trial ---------------------------
class _Layout(NamedTuple):
    """Read-only maps that depend on the array geometry only."""

    col_group: np.ndarray  # (cols,) eDAC group of each column position in a row
    col_bit: np.ndarray  # (cols,) CB-local bit index: column c holds bit c % cb_cols
    share_mask: np.ndarray  # (rows, cols) phase-4 participation of each capacitor


@functools.lru_cache(maxsize=8)
def _layout(cfg: ArrayConfig) -> _Layout:
    col_bit = np.arange(cfg.cols) % cfg.cb_cols
    # Phase-4 participation mask: in CB-local column b, the first 2^b row
    # capacitors connect to the final output line.
    share = np.asarray(cfg.cb_share_counts)
    layout = _Layout(
        col_group=group_index_map(cfg.row_group_sizes),
        col_bit=col_bit,
        share_mask=np.arange(cfg.rows)[:, None] < share[col_bit][None, :],
    )
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _column_caps(
    caps: np.ndarray, share_mask: np.ndarray, cb_cols: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Shared-node capacitances of the column and bar shares of ``caps``,
    (..., rows, cols) whose columns are whole compute bars: (per column, each
    column's phase-4 participating capacitance, per bar).  einsum adds the
    rows in order, as ``caps.sum(axis=-2)`` does, with less overhead on a
    batch of narrow bars."""
    part = np.einsum("...rc->...c", np.where(share_mask, caps, 0.0))
    bars = part.reshape(part.shape[:-1] + (-1, cb_cols)).sum(axis=-1)
    return np.einsum("...rc->...c", caps), part, bars


def _checked_weights(weights: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    arr = np.asarray(weights)
    if arr.shape != (cfg.rows, cfg.n_cbs):
        raise ValueError(
            f"expected weights of shape {(cfg.rows, cfg.n_cbs)}, got {arr.shape}"
        )
    if np.any(arr < 0) or np.any(arr >= (1 << cfg.weight_bits)):
        raise ValueError(f"weights must be in [0, {(1 << cfg.weight_bits) - 1}]")
    return arr.astype(np.int64)


def _checked_inputs(x: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Input codes of one read, (rows,), or of a batch, (k, rows)."""
    codes = np.asarray(x)
    if codes.ndim not in (1, 2) or codes.shape[-1] != cfg.rows:
        raise ValueError(
            f"expected input of shape ({cfg.rows},) or (k, {cfg.rows}), got {codes.shape}"
        )
    if np.any(codes < 0) or np.any(codes >= (1 << cfg.input_bits)):
        raise ValueError(f"input codes must be in [0, {(1 << cfg.input_bits) - 1}]")
    return codes.astype(np.int64)


def _bit_planes(weights: np.ndarray, layout: _Layout, cb_cols: int) -> np.ndarray:
    """(rows, n_cbs) weights -> (rows, cols) stored bits; bit b of weight j
    lands in column j * cb_cols + b."""
    expanded = np.repeat(weights, cb_cols, axis=1)
    return ((expanded >> layout.col_bit[None, :]) & 1).astype(np.uint8)


def _input_bits(codes: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    return (codes[..., None] >> np.arange(cfg.input_bits)) & 1


def _activations(bits: np.ndarray, cfg: ArrayConfig) -> int:
    """MCC charging events of phase 1: every unit of each eDAC group whose
    input bit is set; ``bits`` from :func:`_input_bits`."""
    return int((bits * np.asarray(cfg.row_group_sizes[1:])).sum())


def _group_voltages(bits: np.ndarray) -> np.ndarray:
    """Phase-1 (..., rows, groups) eDAC group voltages from the input
    ``bits``: group 0 pinned to VSS, group k>=1 driven to VDD when input bit
    k-1 is set."""
    return np.concatenate(
        [np.zeros(bits.shape[:-1] + (1,)), bits * constants.VDD_VOLT], axis=-1
    )


def _row_share(charge: np.ndarray, total_cap: np.ndarray) -> np.ndarray:
    """Phase 1: each row's nodes share their charge; ``charge`` holds the
    (..., rows, nodes) product C * V of every node."""
    return charge.sum(axis=-1) / total_cap


def _column_share(
    v_rows: np.ndarray, cell_caps: np.ndarray, total_cap: np.ndarray
) -> np.ndarray:
    """Phases 2 and 3: the RWL pulse keeps each (k, rows) row voltage where
    the stored bit is 1 and discharges it where it is 0, and each column
    shares the rows' charge.  ``cell_caps`` is each capacitor's capacitance
    times its stored bit, (rows, cols) or (k, rows, cols).  einsum adds the
    rows in order, as ``(caps * v_cells).sum(axis=0)`` does."""
    subscripts = "kr,rc->kc" if cell_caps.ndim == 2 else "kr,krc->kc"
    return np.einsum(subscripts, v_rows, cell_caps) / total_cap


def _bar_share(
    part: np.ndarray, v_cols: np.ndarray, bars: np.ndarray, cb_cols: int
) -> np.ndarray:
    """Phase 4: each compute bar's columns share their participating
    capacitors; (k, cols) column voltages -> (k, n_cbs)."""
    bar_shape = (v_cols.shape[-1] // cb_cols, cb_cols)
    charge = part.reshape(part.shape[:-1] + bar_shape) * v_cols.reshape(len(v_cols), *bar_shape)
    return charge.sum(axis=-1) / bars


def _settle(
    v: np.ndarray,
    total_cap: np.ndarray,
    variation: VariationModel,
    normals: Normals,
) -> np.ndarray:
    """Add one bank of (k, n) shares' kT/C and charge-injection noise, read
    from ``normals`` in that order, and clip to the rails."""
    v = v + variation.ktc_noise_from(total_cap, normals)
    v = v + variation.charge_injection_from(v.shape[-1], normals)
    # np.clip, without its wrapper's cost on these short vectors.
    return np.minimum(np.maximum(v, constants.VSS_VOLT), constants.VDD_VOLT)


class InChargeArray:
    """A behavioral 128x256 in-charge computing array instance.

    Parameters
    ----------
    config:
        Array geometry and costs; defaults to the paper's Table II array.
    variation:
        Analog error model.  Mismatch maps are sampled once at construction
        (mismatch is static per fabricated instance); per-event noise (kT/C,
        charge injection) is drawn per read, in read order.
    seed:
        Seed for the instance's RNG.
    rng:
        Alternatively, an externally managed generator (``DetailedIMA``
        gives each of its arrays an independent stream this way).
    """

    def __init__(
        self,
        config: Optional[ArrayConfig] = None,
        variation: Optional[VariationModel] = None,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._config = config if config is not None else ArrayConfig()
        self._variation = variation if variation is not None else VariationModel.typical()
        self._rng = rng if rng is not None else make_rng(seed)

        cfg = self._config
        self._layout = _layout(cfg)
        # Static per-instance mismatch map of all unit capacitors, and the
        # shared-node capacitance of every charge share it implies.
        self._caps = self._variation.sample_unit_capacitors(
            (cfg.rows, cfg.cols), self._rng
        )
        self._row_caps = self._caps.sum(axis=1)
        self._col_caps, self._part_caps, self._bar_caps = _column_caps(
            self._caps, self._layout.share_mask, cfg.cb_cols
        )
        # Programmed weights and their stored bit-planes.
        self._weights = np.zeros((cfg.rows, cfg.n_cbs), dtype=np.int64)
        self._weight_bits = np.zeros((cfg.rows, cfg.cols), dtype=np.uint8)
        self._programmed = False
        self._activation_count = 0
        self._vmm_count = 0

    # -- accessors ---------------------------------------------------------------
    @property
    def config(self) -> ArrayConfig:
        return self._config

    @property
    def variation(self) -> VariationModel:
        return self._variation

    @property
    def capacitances(self) -> np.ndarray:
        """The static (rows, cols) capacitance map, farads."""
        return self._caps.copy()

    @property
    def vmm_count(self) -> int:
        return self._vmm_count

    @property
    def activation_count(self) -> int:
        """Lifetime MCC charging events (drives the 1.62 fJ/act energy)."""
        return self._activation_count

    # -- weight programming --------------------------------------------------------
    def program_weights(self, weights: np.ndarray) -> None:
        """Store an unsigned 8-bit weight matrix of shape (rows, n_cbs).

        Weight ``weights[i, j]`` lands in compute bar ``j`` of row ``i``,
        bit ``b`` in CB-local column ``b``.
        """
        self._weights = _checked_weights(weights, self._config)
        self._weight_bits = _bit_planes(self._weights, self._layout, self._config.cb_cols)
        self._programmed = True

    @property
    def weight_bits(self) -> np.ndarray:
        return self._weight_bits.copy()

    def stored_weights(self) -> np.ndarray:
        """The programmed (rows, n_cbs) unsigned weight matrix."""
        return self._weights.copy()

    # -- reads ----------------------------------------------------------------------
    def convert_inputs(self, x: np.ndarray) -> np.ndarray:
        """Phase 1 alone: the row charge share converting digital inputs to
        analog voltages.

        Parameters
        ----------
        x:
            Unsigned input codes, each in [0, 255]: one read of shape
            (rows,) or a batch of shape (k, rows).

        Returns
        -------
        Post-share row voltages, shape (rows,) or (k, rows).
        """
        (v_rows,) = self._read(x, vmm=False)
        return v_rows

    def vmm_voltages(self, x: np.ndarray) -> np.ndarray:
        """Run all four phases on an input of shape (rows,) or a batch of
        shape (k, rows); returns the (n_cbs,) or (k, n_cbs) MAC voltages."""
        return self.vmm_diagnostics(x).mac_voltages

    def vmm_diagnostics(self, x: np.ndarray) -> ArrayDiagnostics:
        """Run all four phases keeping every intermediate node voltage.

        A batch draws, read by read, the numbers that one read at a time
        would, so it returns what ``k`` single reads return, bit for bit.
        """
        if not self._programmed:
            raise RuntimeError("program_weights must be called before computing")
        return ArrayDiagnostics(*self._read(x, vmm=True))

    def _read(self, x: np.ndarray, vmm: bool) -> "list[np.ndarray]":
        """Phase 1, and phases 2-4 when ``vmm``, _READ_CHUNK reads at a time;
        returns the row voltages, and the column and MAC voltages when ``vmm``."""
        codes = _checked_inputs(x, self._config)
        batch = codes.reshape(-1, self._config.rows)
        # An empty batch still runs one (empty) chunk, for its shapes.
        chunks = [
            self._read_chunk(batch[i : i + _READ_CHUNK], vmm)
            for i in range(0, max(len(batch), 1), _READ_CHUNK)
        ]
        nodes = [np.concatenate(parts) for parts in zip(*chunks)]
        if vmm:
            self._vmm_count += len(batch)
        return nodes if codes.ndim == 2 else [node[0] for node in nodes]

    def _read_chunk(self, codes: np.ndarray, vmm: bool) -> "tuple[np.ndarray, ...]":
        cfg, variation = self._config, self._variation
        shares = cfg.rows + (cfg.cols + cfg.n_cbs if vmm else 0)
        normals = Normals(self._rng.standard_normal(
            (len(codes), variation.share_noise_draws(shares))
        ))
        bits = _input_bits(codes, cfg)
        self._activation_count += _activations(bits, cfg)
        # (k, rows, cols) capacitor voltages before the row share, then their
        # charge.  take, not fancy indexing, which returns a Fortran-ordered
        # array here.
        charge = _group_voltages(bits).take(self._layout.col_group, axis=-1)
        charge *= self._caps
        v_rows = _settle(_row_share(charge, self._row_caps), self._row_caps, variation, normals)
        if not vmm:
            return (v_rows,)
        v_cols = _column_share(v_rows, self._caps * self._weight_bits, self._col_caps)
        v_cols = _settle(v_cols, self._col_caps, variation, normals)
        v_mac = _bar_share(self._part_caps, v_cols, self._bar_caps, cfg.cb_cols)
        return v_rows, v_cols, _settle(v_mac, self._bar_caps, variation, normals)

    def ideal_vmm_voltages(self, x: np.ndarray) -> np.ndarray:
        """Closed-form noiseless MAC voltages for the programmed weights."""
        cfg = self._config
        dots = _checked_inputs(x, cfg) @ self._weights
        return constants.VDD_VOLT * dots / float(
            (1 << cfg.input_bits) * cfg.rows * ((1 << cfg.weight_bits) - 1)
        )

    @property
    def full_scale_volt(self) -> float:
        """MAC voltage at the all-max input/weight corner: VDD * 255/256."""
        cfg = self._config
        max_code = (1 << cfg.input_bits) - 1
        return constants.VDD_VOLT * max_code / float(1 << cfg.input_bits)

    # -- energy ---------------------------------------------------------------------
    def energy_pj_per_vmm(self, x: np.ndarray) -> float:
        """Data-dependent array energy of one VMM.

        MCC charging scales with the fraction of capacitors actually driven
        high in phase 1 (the paper books 50 % average activity); row drivers
        and TDAs bill per VMM.
        """
        cfg = self._config
        activations = float(_activations(_input_bits(_checked_inputs(x, cfg), cfg), cfg))
        return (
            activations * cfg.mcc_energy_fj * 1e-3
            + cfg.row_driver_count * cfg.row_driver_energy_fj * 1e-3
            + cfg.tda_count * cfg.tda_energy_fj * 1e-3
        )


class _BarOperands(NamedTuple):
    """What every Monte-Carlo trial on one compute bar shares."""

    cols: slice  # the bar's columns
    outside_groups: np.ndarray  # (m,) eDAC groups with units outside the bar
    outside_counts: np.ndarray  # (m,) how many of each group's units those are
    row_volts: np.ndarray  # (rows, cb_cols + m) phase-1 voltage of each row node
    planes: np.ndarray  # (rows, cb_cols) the bar's stored bits, as 0.0/1.0
    share_mask: np.ndarray  # (rows, cb_cols) the bar's phase-4 participation


def _bar_operands(
    weights: np.ndarray, x: np.ndarray, cb: int, cfg: ArrayConfig
) -> _BarOperands:
    """Validate a trial's operands, with the array's messages, and lay out
    phase 1 of bar ``cb``'s rows as the bar's own units followed by one
    node per eDAC group's units outside the bar."""
    layout = _layout(cfg)
    planes = _bit_planes(_checked_weights(weights, cfg), layout, cfg.cb_cols)
    if np.ndim(x) != 1:
        raise ValueError(f"a trial reads one input of shape ({cfg.rows},), got {np.shape(x)}")
    group_volts = _group_voltages(_input_bits(_checked_inputs(x, cfg), cfg))
    if not 0 <= cb < cfg.n_cbs:
        raise ValueError(f"compute bar {cb} out of range [0, {cfg.n_cbs})")
    cols = slice(cb * cfg.cb_cols, (cb + 1) * cfg.cb_cols)
    n_groups = len(cfg.row_group_sizes)
    bar_groups = layout.col_group[cols]
    outside = np.asarray(cfg.row_group_sizes) - np.bincount(bar_groups, minlength=n_groups)
    outside_groups = np.flatnonzero(outside)
    return _BarOperands(
        cols=cols,
        outside_groups=outside_groups,
        outside_counts=outside[outside_groups],
        row_volts=group_volts.take(np.concatenate([bar_groups, outside_groups]), axis=1),
        planes=planes[:, cols].astype(float),  # 0/1: the same products, no cast
        share_mask=np.ascontiguousarray(layout.share_mask[:, cols]),
    )


def _bar_mac_voltages(
    bar_caps: np.ndarray,
    outside_caps: np.ndarray,
    ops: _BarOperands,
    variation: VariationModel,
    normals: Normals,
) -> np.ndarray:
    """Bar ``ops.cols``'s MAC voltage on each of k instances, from their
    (k, rows, cb_cols) unit capacitors and the (k, rows, m) total
    capacitance of each of ``ops.outside_groups``'s units outside the bar
    in every row; returns (k,).

    Phase 1 shares each row over those nodes: a charge share needs only each
    node's capacitance and voltage, and an eDAC group's units outside the bar
    all sit at the group's voltage.  Phases 2-4 run on the bar's own
    capacitors.  Noise is read from ``normals`` for the shares read: every
    row, the bar's columns and the bar.
    """
    cb_cols = bar_caps.shape[-1]
    row_nodes = np.concatenate((bar_caps, outside_caps), axis=-1)
    row_caps = row_nodes.sum(axis=-1)
    v_rows = _row_share(row_nodes * ops.row_volts, row_caps)
    v_rows = _settle(v_rows, row_caps, variation, normals)
    col_caps, part_caps, bar_cap = _column_caps(bar_caps, ops.share_mask, cb_cols)
    v_cols = _column_share(v_rows, bar_caps * ops.planes, col_caps)
    v_cols = _settle(v_cols, col_caps, variation, normals)
    v_mac = _bar_share(part_caps, v_cols, bar_cap, cb_cols)
    return _settle(v_mac, bar_cap, variation, normals)[:, 0]


class _BarTrial(BatchTrial):
    """Bar ``ops.cols``'s MAC voltage on fresh array instances."""

    def __init__(self, ops: _BarOperands, variation: VariationModel, cfg: ArrayConfig) -> None:
        self._ops = ops
        self._variation = variation
        self._cfg = cfg
        m = len(ops.outside_counts)
        self._draws = variation.mismatch_draws(cfg.rows * (cfg.cb_cols + m))
        self._draws += variation.share_noise_draws(cfg.rows + cfg.cb_cols + 1)

    def batch(self, rngs: Sequence[np.random.Generator]) -> np.ndarray:
        cfg, variation = self._cfg, self._variation
        normals = Normals.draw(rngs, self._draws)
        bar_caps = variation.unit_capacitors_from((cfg.rows, cfg.cb_cols), normals)
        outside_caps = variation.group_capacitances_from(
            self._ops.outside_counts, cfg.rows, normals
        )
        return _bar_mac_voltages(bar_caps, outside_caps, self._ops, variation, normals)


def mac_voltage_trial(
    weights: np.ndarray,
    x: np.ndarray,
    variation: VariationModel,
    cb: int = 0,
) -> BatchTrial:
    """A Monte-Carlo trial: compute bar ``cb``'s MAC voltage on a fresh array.

    ``trial(rng)`` is distributed as the MAC voltage that
    ``InChargeArray(variation=variation, rng=rng)``, programmed with
    ``weights``, reads on bar ``cb`` for input ``x``
    (``vmm_voltages(x)[cb]``), but draws far fewer numbers.  A trial
    samples only what bar ``cb`` reads:

    * the bar's (rows, cb_cols) unit capacitors, through
      ``variation.unit_capacitors_from``;
    * per row, one total capacitance for each eDAC group's units outside the
      bar, through ``variation.group_capacitances_from``.  Phase 1 needs
      no more, since those units share one voltage; bar 0 holds groups 0-3,
      so its rows need 8 + 5 capacitances instead of 256;
    * kT/C and charge-injection noise of every row share, the bar's column
      shares and the bar share, not of shares that are never read.

    Each trial draws its numbers as one block of standard normals from its
    own generator: for bar 0 at the default variation, 1,024 unit
    capacitors, 640 group sums and 2 x (128 + 8 + 1) noise values.
    ``trial.batch(rngs)`` evaluates a chunk of trials in one kernel and
    returns what ``trial`` returns on each generator, bit for bit.
    Operands are validated once, with the array's error messages.  On a
    shared 2-vCPU Xeon host a trial takes 65-105 us in 64-trial chunks, with
    the host's load, about half of it its generator and its draws
    (:func:`repro.experiments.fig6.run_fig6d`), against 0.7 ms for the full
    (128, 256) map and 256-column banks an array instance draws.
    """
    cfg = ArrayConfig()
    return _BarTrial(_bar_operands(weights, x, cb, cfg), variation, cfg)


def input_conversion_transfer_curve(
    array: InChargeArray, row: int = 0
) -> "tuple[np.ndarray, np.ndarray]":
    """Sweep one row's input code 0..255 and record the conversion voltage.

    Used for Fig. 6(a).  Returns (codes, voltages).
    """
    cfg = array.config
    n_codes = 1 << cfg.input_bits
    if not 0 <= row < cfg.rows:
        raise ValueError(f"row {row} out of range")
    codes = np.arange(n_codes)
    x = np.zeros((n_codes, cfg.rows), dtype=np.int64)
    x[:, row] = codes
    return codes, array.convert_inputs(x)[:, row]
