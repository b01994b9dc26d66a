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

Each phase is one module-level kernel.  :class:`InChargeArray` runs them on
a persistent instance; :func:`mac_voltage_trial` runs the same kernels for
Monte-Carlo, where every trial is a fresh instance read on one compute bar,
drawn as only the capacitances and noise that bar reads.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro import constants
from repro.analog.variation import VariationModel, make_rng
from repro.core.charge import group_index_map
from repro.core.config import ArrayConfig


@dataclasses.dataclass(frozen=True)
class ArrayDiagnostics:
    """Intermediate node voltages of one VMM (for circuit-level analysis)."""

    input_voltages: np.ndarray  # (rows,) post-phase-1 row voltages
    column_voltages: np.ndarray  # (cols,) post-phase-3 column voltages
    mac_voltages: np.ndarray  # (n_cbs,) post-phase-4 CB outputs


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
    whose columns are whole compute bars: (per column, each column's phase-4
    participating capacitance, per bar)."""
    part = np.where(share_mask, caps, 0.0).sum(axis=0)
    return caps.sum(axis=0), part, part.reshape(-1, cb_cols).sum(axis=1)


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
    codes = np.asarray(x)
    if codes.shape != (cfg.rows,):
        raise ValueError(f"expected input of shape ({cfg.rows},), got {codes.shape}")
    if np.any(codes < 0) or np.any(codes >= (1 << cfg.input_bits)):
        raise ValueError(f"input codes must be in [0, {(1 << cfg.input_bits) - 1}]")
    return codes.astype(np.int64)


def _bit_planes(weights: np.ndarray, layout: _Layout, cb_cols: int) -> np.ndarray:
    """(rows, n_cbs) weights -> (rows, cols) stored bits; bit b of weight j
    lands in column j * cb_cols + b."""
    expanded = np.repeat(weights, cb_cols, axis=1)
    return ((expanded >> layout.col_bit[None, :]) & 1).astype(np.uint8)


def _input_bits(codes: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    return (codes[:, None] >> np.arange(cfg.input_bits)[None, :]) & 1


def _group_voltages(codes: np.ndarray, cfg: ArrayConfig) -> np.ndarray:
    """Phase-1 (rows, groups) eDAC group voltages: group 0 pinned to VSS,
    group k>=1 driven to VDD when input bit k-1 is set."""
    return np.concatenate(
        [np.zeros((cfg.rows, 1)), _input_bits(codes, cfg) * constants.VDD_VOLT], axis=1
    )


def _pre_share_voltages(
    codes: np.ndarray, cfg: ArrayConfig, layout: _Layout
) -> np.ndarray:
    """Phase-1 (rows, cols) capacitor voltages before the row share."""
    # take, not fancy indexing, which returns a Fortran-ordered array here
    # (several times slower to multiply with the C-ordered capacitor map).
    return _group_voltages(codes, cfg).take(layout.col_group, axis=1)


def _share(
    caps: np.ndarray, volts: np.ndarray, total_cap: np.ndarray, axis: int
) -> np.ndarray:
    """Noiseless voltage of charge shares along ``axis``: sum(C*V) / sum(C)."""
    return (caps * volts).sum(axis=axis) / total_cap


def _bar_share(
    part: np.ndarray, v_cols: np.ndarray, bars: np.ndarray, cb_cols: int
) -> np.ndarray:
    """Phase 4: each compute bar's columns share their participating capacitors."""
    return _share(part.reshape(-1, cb_cols), v_cols.reshape(-1, cb_cols), bars, axis=1)


def _settle(
    v: np.ndarray,
    total_cap: np.ndarray,
    variation: VariationModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Add one bank of shares' kT/C and charge-injection noise and clip to
    the rails."""
    v = v + variation.ktc_noise(total_cap, rng)
    v = v + variation.charge_injection(total_cap.shape, rng)
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
        charge injection) is drawn per VMM.
    seed:
        Seed for the instance's RNG.
    rng:
        Alternatively, an externally managed generator (used by the
        Monte-Carlo harness to give each instance an independent stream).
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

    # -- phase 1: DAC-less input conversion ------------------------------------------
    def convert_inputs(self, x: np.ndarray) -> np.ndarray:
        """Row charge share converting digital inputs to analog voltages.

        Parameters
        ----------
        x:
            Unsigned input codes, shape (rows,), each in [0, 255].

        Returns
        -------
        Post-share row voltages, shape (rows,).
        """
        pre_share = _pre_share_voltages(
            _checked_inputs(x, self._config), self._config, self._layout
        )
        self._activation_count += int(np.count_nonzero(pre_share))
        v_rows = _share(self._caps, pre_share, self._row_caps, axis=1)
        return _settle(v_rows, self._row_caps, self._variation, self._rng)

    # -- phase 2: 1-bit multiplication ---------------------------------------------
    def multiply(self, v_rows: np.ndarray) -> np.ndarray:
        """RWL pulse: keep the row voltage where the stored bit is 1,
        discharge to VSS where it is 0.  Returns (rows, cols) voltages."""
        if not self._programmed:
            raise RuntimeError("program_weights must be called before computing")
        v = np.asarray(v_rows, dtype=float)
        if v.shape != (self._config.rows,):
            raise ValueError(f"expected ({self._config.rows},) row voltages")
        return v[:, None] * self._weight_bits

    # -- phase 3: parallel accumulation ----------------------------------------------
    def accumulate_columns(self, v_cells: np.ndarray) -> np.ndarray:
        """Column-wide charge share: (rows, cols) -> (cols,) voltages."""
        cfg = self._config
        if v_cells.shape != (cfg.rows, cfg.cols):
            raise ValueError("cell voltage matrix has wrong shape")
        v_cols = _share(self._caps, v_cells, self._col_caps, axis=0)
        return _settle(v_cols, self._col_caps, self._variation, self._rng)

    # -- phase 4: weighted summation ---------------------------------------------------
    def weighted_sum(self, v_cols: np.ndarray) -> np.ndarray:
        """Multi-column charge share inside each CB: (cols,) -> (n_cbs,).

        Column ``b`` contributes ``2^b`` unit capacitors, realising the
        binary shift-and-add as a capacitance-ratioed average.
        """
        cfg = self._config
        if v_cols.shape != (cfg.cols,):
            raise ValueError("column voltage vector has wrong shape")
        v_mac = _bar_share(self._part_caps, v_cols, self._bar_caps, cfg.cb_cols)
        return _settle(v_mac, self._bar_caps, self._variation, self._rng)

    # -- full VMM -------------------------------------------------------------------
    def vmm_voltages(self, x: np.ndarray) -> np.ndarray:
        """Run all four phases; returns the (n_cbs,) MAC voltages."""
        return self.vmm_diagnostics(x).mac_voltages

    def vmm_diagnostics(self, x: np.ndarray) -> ArrayDiagnostics:
        """Run all four phases keeping every intermediate node voltage."""
        v_rows = self.convert_inputs(x)
        v_cells = self.multiply(v_rows)
        v_cols = self.accumulate_columns(v_cells)
        v_mac = self.weighted_sum(v_cols)
        self._vmm_count += 1
        return ArrayDiagnostics(
            input_voltages=v_rows, column_voltages=v_cols, mac_voltages=v_mac
        )

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
        bits = _input_bits(_checked_inputs(x, cfg), cfg)
        group_sizes = np.asarray(cfg.row_group_sizes[1:])
        activations = float((bits * group_sizes[None, :]).sum())
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
    group_volts = _group_voltages(_checked_inputs(x, cfg), cfg)
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


def _bar_mac_voltage(
    bar_caps: np.ndarray,
    outside_caps: np.ndarray,
    ops: _BarOperands,
    variation: VariationModel,
    rng: np.random.Generator,
) -> float:
    """Bar ``ops.cols``'s MAC voltage from its (rows, cb_cols) unit
    capacitors and the (rows, m) total capacitance of each of
    ``ops.outside_groups``'s units outside the bar in every row.

    Phase 1 shares each row over those nodes: a charge share needs only each
    node's capacitance and voltage, and an eDAC group's units outside the bar
    all sit at the group's voltage.  Phases 2-4 run on the bar's own
    capacitors.  Noise is drawn for the shares read: every row, the bar's
    columns and the bar.
    """
    cb_cols = bar_caps.shape[1]
    row_nodes = np.concatenate((bar_caps, outside_caps), axis=1)
    row_caps = row_nodes.sum(axis=1)
    v_rows = _share(row_nodes, ops.row_volts, row_caps, axis=1)
    v_rows = _settle(v_rows, row_caps, variation, rng)
    col_caps, part_caps, bar_cap = _column_caps(bar_caps, ops.share_mask, cb_cols)
    v_cols = _share(bar_caps, v_rows[:, None] * ops.planes, col_caps, axis=0)
    v_cols = _settle(v_cols, col_caps, variation, rng)
    v_mac = _bar_share(part_caps, v_cols, bar_cap, cb_cols)
    return float(_settle(v_mac, bar_cap, variation, rng)[0])


def mac_voltage_trial(
    weights: np.ndarray,
    x: np.ndarray,
    variation: VariationModel,
    cb: int = 0,
) -> Callable[[np.random.Generator], float]:
    """A Monte-Carlo trial: compute bar ``cb``'s MAC voltage on a fresh array.

    ``trial(rng)`` is distributed as the MAC voltage that
    ``InChargeArray(variation=variation, rng=rng)``, programmed with
    ``weights``, reads on bar ``cb`` for input ``x``
    (``vmm_voltages(x)[cb]``), but draws far fewer numbers.  A trial
    samples only what bar ``cb`` reads:

    * the bar's (rows, cb_cols) unit capacitors, through
      ``variation.sample_unit_capacitors``;
    * per row, one total capacitance for each eDAC group's units outside the
      bar, through ``variation.sample_group_capacitances``.  Phase 1 needs
      no more, since those units share one voltage; bar 0 holds groups 0-3,
      so its rows need 8 + 5 capacitances instead of 256;
    * kT/C and charge-injection noise of every row share, the bar's column
      shares and the bar share, not of shares that are never read.

    Operands are validated once, with the array's error messages.  On a
    shared 2-vCPU Xeon host a trial takes about 0.17 ms, against 0.7 ms for
    the full (128, 256) map and 256-column banks an array instance draws.
    """
    cfg = ArrayConfig()
    ops = _bar_operands(weights, x, cb, cfg)
    bar_shape = (cfg.rows, cfg.cb_cols)

    def trial(rng: np.random.Generator) -> float:
        bar_caps = variation.sample_unit_capacitors(bar_shape, rng)
        outside_caps = variation.sample_group_capacitances(
            ops.outside_counts, cfg.rows, rng
        )
        return _bar_mac_voltage(bar_caps, outside_caps, ops, variation, rng)

    return trial


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
    voltages = np.empty(n_codes)
    x = np.zeros(cfg.rows, dtype=np.int64)
    for code in codes:
        x[row] = code
        voltages[code] = array.convert_inputs(x)[row]
    return codes, voltages
