"""Fig. 6: circuit-level accuracy characterisation of the in-charge array.

Sub-experiments:

* (a) input-conversion transfer curve with INL/DNL (< 2 LSB, typ. < 1);
* (b, c) 8-bit 128-channel MAC transfer curves and error (< 0.68 %);
* (d) 2 000-sample Monte-Carlo MAC-voltage offset (3 sigma ~ 2.25 mV
  against the 3.52 mV LSB);
* (e) end-to-end error stack: MAC, +TDA (< 0.79 %), +TDC (< 0.98 %),
  compared with five prior designs' published errors;
* (f) inference accuracy of trained stand-in networks under full-precision
  vs YOCO-analog arithmetic (< 0.5 % loss on CNNs, < 0.61 % on
  transformers).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro import constants
from repro.analog.metrics import TransferCurve
from repro.analog.montecarlo import MonteCarloResult, run_monte_carlo
from repro.analog.variation import VariationModel
from repro.core.array import (
    InChargeArray,
    input_conversion_transfer_curve,
    mac_voltage_trial,
)
from repro.core.ima import DetailedIMA
from repro.core.tda import TimeDomainAccumulator
from repro.experiments.data import FIG6E_PRIOR_ERRORS, FIG6E_YOCO_PAPER_PERCENT
from repro.experiments.report import format_table


# -- Fig. 6(a) -----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Fig6aResult:
    curve: TransferCurve

    @property
    def max_abs_inl_lsb(self) -> float:
        return self.curve.max_abs_inl

    @property
    def max_abs_dnl_lsb(self) -> float:
        return self.curve.max_abs_dnl


def run_fig6a(seed: int = 0) -> Fig6aResult:
    """Sweep one row's input code and measure the conversion linearity."""
    array = InChargeArray(variation=VariationModel.typical(), seed=seed)
    codes, voltages = input_conversion_transfer_curve(array, row=0)
    curve = TransferCurve(codes=codes, voltages=voltages, lsb_volt=constants.LSB_VOLT)
    return Fig6aResult(curve=curve)


# -- Fig. 6(b, c) ---------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Fig6bcResult:
    weight_sweep_voltages: np.ndarray  # IN=255, W = 0..255
    input_sweep_voltages: np.ndarray  # W=255, IN = 0..255
    weight_sweep_error: np.ndarray  # fraction of full scale
    input_sweep_error: np.ndarray

    @property
    def max_error_percent(self) -> float:
        worst = max(
            np.abs(self.weight_sweep_error).max(),
            np.abs(self.input_sweep_error).max(),
        )
        return 100.0 * float(worst)


def run_fig6bc(seed: int = 0, step: int = 1) -> Fig6bcResult:
    """The paper's two 128-channel MAC transfer curves."""
    if step < 1:
        raise ValueError("step must be >= 1")
    array = InChargeArray(variation=VariationModel.typical(), seed=seed)
    cfg = array.config
    codes = np.arange(0, 1 << cfg.weight_bits, step)

    w_volts, w_err = [], []
    x_max = np.full(cfg.rows, 255)
    for w in codes:
        array.program_weights(np.full((cfg.rows, cfg.n_cbs), w))
        measured = array.vmm_voltages(x_max)[0]
        ideal = array.ideal_vmm_voltages(x_max)[0]
        w_volts.append(measured)
        w_err.append((measured - ideal) / array.full_scale_volt)

    # The input sweep reads one programmed array: one batch of inputs.
    array.program_weights(np.full((cfg.rows, cfg.n_cbs), 255))
    xs = np.repeat(codes[:, None], cfg.rows, axis=1)
    i_volts = array.vmm_voltages(xs)[:, 0]
    i_err = (i_volts - array.ideal_vmm_voltages(xs)[:, 0]) / array.full_scale_volt

    return Fig6bcResult(
        weight_sweep_voltages=np.asarray(w_volts),
        input_sweep_voltages=i_volts,
        weight_sweep_error=np.asarray(w_err),
        input_sweep_error=i_err,
    )


# -- Fig. 6(d) -----------------------------------------------------------------------
def run_fig6d(n_samples: int = 2000, seed: int = 42) -> MonteCarloResult:
    """PVT Monte-Carlo of the MAC voltage at TT corner, 25 C.

    Each trial is a fresh array instance read on compute bar 0, drawn by
    :func:`~repro.core.array.mac_voltage_trial` as bar 0's 1,024 unit
    capacitors, 640 eDAC-group sums and the noise of the shares it reads,
    and evaluated 64 trials to a kernel call.  On a shared 2-vCPU Xeon
    host 2,000 trials take 0.13-0.21 s with the host's load (65-105 us a
    trial; drawing all 32,768 unit capacitors of an instance took 1.39 s).
    Half of a trial is a floor that batching cannot lower: in a run at
    105 us a trial, spawning and building the trial's generator took
    20 us and drawing its 1,938 normals 33 us.  Phases 1-4 over the chunk
    take the rest.  A further speed-up needs fewer draws, which would
    change the samples.
    """
    rng = np.random.default_rng(0)
    weights = rng.integers(0, 256, (constants.ARRAY_ROWS, constants.CBS_PER_ARRAY))
    x = rng.integers(0, 256, constants.ARRAY_ROWS)
    trial = mac_voltage_trial(weights, x, VariationModel.typical())
    return run_monte_carlo(trial, n_samples, seed=seed)


# -- Fig. 6(e) -----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Fig6eResult:
    mac_error_percent: float  # array level (phases 1-4)
    tda_error_percent: float  # time-domain accumulation alone
    end_to_end_error_percent: float  # incl. 8-bit TDC readout
    prior_errors: "tuple"

    def bars(self) -> List["tuple[str, float]"]:
        rows = [(e.label, e.error_percent) for e in self.prior_errors]
        rows.append(("Our (YOCO, measured)", self.end_to_end_error_percent))
        return rows


def run_fig6e(seed: int = 0, n_vectors: int = 8) -> Fig6eResult:
    """Measure the error stack on a detailed IMA instance."""
    rng = np.random.default_rng(seed)
    # Array-level MAC error over random vectors.
    array = InChargeArray(variation=VariationModel.typical(), seed=seed)
    array.program_weights(rng.integers(0, 256, (128, 32)))
    # One (n_vectors, 128) draw holds the codes n_vectors single draws would.
    xs = rng.integers(0, 256, (n_vectors, 128))
    mac_errors = (array.vmm_voltages(xs) - array.ideal_vmm_voltages(xs)) / array.full_scale_volt
    mac_percent = 100.0 * float(np.abs(mac_errors).max())

    # TDA-only error.
    tda = TimeDomainAccumulator(n_chains=256, n_stages=8, seed=seed)
    volts = rng.uniform(0.0, constants.VDD_VOLT, (256, 8))
    tda_percent = 100.0 * float(np.abs(tda.relative_error(volts)).max())

    # End-to-end IMA error (codes vs ideal integer codes).
    ima = DetailedIMA(seed=seed)
    ima.program_weights(rng.integers(0, 256, (1024, 256)))
    code_errors = ima.code_error(rng.integers(0, 256, (n_vectors, 1024)))
    e2e_percent = 100.0 * float(np.abs(code_errors).max()) / 256.0

    return Fig6eResult(
        mac_error_percent=mac_percent,
        tda_error_percent=tda_percent,
        end_to_end_error_percent=e2e_percent,
        prior_errors=FIG6E_PRIOR_ERRORS,
    )


# -- Fig. 6(f) -----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AccuracyComparison:
    benchmark: str
    family: str  # "cnn" | "transformer"
    original_accuracy: float
    yoco_accuracy: float

    @property
    def loss_percent(self) -> float:
        return 100.0 * (self.original_accuracy - self.yoco_accuracy)


@dataclasses.dataclass(frozen=True)
class Fig6fResult:
    comparisons: "tuple[AccuracyComparison, ...]"

    @property
    def max_cnn_loss_percent(self) -> float:
        return max(c.loss_percent for c in self.comparisons if c.family == "cnn")

    @property
    def max_transformer_loss_percent(self) -> float:
        return max(c.loss_percent for c in self.comparisons if c.family == "transformer")


def run_fig6f(quick: bool = False, seed: int = 0) -> Fig6fResult:
    """Train the 6 stand-in benchmarks; compare float vs YOCO inference.

    ``quick=True`` shrinks datasets/epochs for test-suite use.  The full
    setting at ``seed=0`` gives a max CNN loss of 0.78 % (cnn-compact,
    0.9707 -> 0.9629 on 512 test images), above the paper's < 0.5 %, and a
    max transformer loss of -0.39 % (the paper: < 0.61 %).
    ``benchmarks/bench_fig6.py`` bounds both losses by 1.0 % in full mode
    and 8.0 % in quick mode.
    """
    # The NN stack loads here, so the circuit figures (a)-(e) never pay
    # for importing it.
    from repro.nn.backend import FloatBackend, YocoBackend
    from repro.nn.datasets import synthetic_images, synthetic_sequences
    from repro.nn.train import evaluate, train_classifier
    from repro.nn.zoo import (
        build_cnn_compact,
        build_cnn_deep,
        build_cnn_small,
        build_cnn_wide,
        build_transformer_small,
        build_transformer_tiny,
    )

    cnn_builders = {
        "cnn-small (AlexNet-class)": build_cnn_small,
        "cnn-deep (VGG/ResNet-class)": build_cnn_deep,
        "cnn-wide (MobileNet-class)": build_cnn_wide,
        "cnn-compact (DenseNet-class)": build_cnn_compact,
    }
    transformer_builders = {
        "transformer-small (BERT-class)": build_transformer_small,
        "transformer-tiny (ViT-class)": build_transformer_tiny,
    }

    n_train = 512 if quick else 1024
    n_test = 256 if quick else 512
    epochs_cnn = 6 if quick else 10
    epochs_tf = 12 if quick else 18
    comparisons: List[AccuracyComparison] = []

    image_ds = synthetic_images(n_train=n_train, n_test=n_test, noise=1.2, seed=seed)
    for i, (name, builder) in enumerate(cnn_builders.items()):
        model = builder(n_classes=image_ds.n_classes, channels=1, seed=seed + i)
        train_classifier(model, image_ds, epochs=epochs_cnn, batch_size=64, lr=2e-3, seed=seed + i)
        original = evaluate(model, image_ds.x_test, image_ds.y_test, FloatBackend())
        yoco = evaluate(
            model, image_ds.x_test, image_ds.y_test, YocoBackend(mode="fast", seed=seed + i)
        )
        comparisons.append(AccuracyComparison(name, "cnn", original, yoco))

    seq_ds = synthetic_sequences(n_train=n_train, n_test=n_test, corruption=0.25, seed=seed + 50)
    for i, (name, builder) in enumerate(transformer_builders.items()):
        model = builder(n_classes=seq_ds.n_classes, seed=seed + 100 + i)
        train_classifier(model, seq_ds, epochs=epochs_tf, batch_size=64, lr=3e-3, seed=seed + i)
        original = evaluate(model, seq_ds.x_test, seq_ds.y_test, FloatBackend())
        yoco = evaluate(
            model, seq_ds.x_test, seq_ds.y_test, YocoBackend(mode="fast", seed=seed + i)
        )
        comparisons.append(AccuracyComparison(name, "transformer", original, yoco))

    return Fig6fResult(comparisons=tuple(comparisons))


# -- formatting ------------------------------------------------------------------------
def format_fig6(
    a: Optional[Fig6aResult] = None,
    bc: Optional[Fig6bcResult] = None,
    d: Optional[MonteCarloResult] = None,
    e: Optional[Fig6eResult] = None,
    f: Optional[Fig6fResult] = None,
) -> str:
    parts: List[str] = []
    if a is not None:
        parts.append(
            f"Fig.6(a) input conversion: max|INL| = {a.max_abs_inl_lsb:.2f} LSB, "
            f"max|DNL| = {a.max_abs_dnl_lsb:.2f} LSB (paper: < 2 LSB, typ < 1)"
        )
    if bc is not None:
        parts.append(
            f"Fig.6(b,c) 128-channel MAC: max error = {bc.max_error_percent:.3f} % "
            f"of full scale (paper: < 0.68 %)"
        )
    if d is not None:
        parts.append(
            f"Fig.6(d) Monte-Carlo n={d.n}: 3 sigma = {d.three_sigma * 1e3:.2f} mV, "
            f"LSB = {constants.LSB_VOLT * 1e3:.2f} mV (paper: 2.25 mV vs 3.52 mV)"
        )
    if e is not None:
        parts.append(
            f"Fig.6(e) error stack: MAC {e.mac_error_percent:.3f} % | "
            f"TDA {e.tda_error_percent:.3f} % | end-to-end "
            f"{e.end_to_end_error_percent:.3f} % (paper: <0.68/<0.11/<0.98 %)"
        )
        parts.append(
            format_table(
                ("design", "MAC error %"),
                [(label, f"{val:.2f}") for label, val in e.bars()]
                + [("(paper's own YOCO figure)", f"{FIG6E_YOCO_PAPER_PERCENT:.2f}")],
            )
        )
    if f is not None:
        parts.append(
            format_table(
                ("benchmark", "family", "original", "YOCO", "loss %"),
                [
                    (c.benchmark, c.family, f"{c.original_accuracy:.4f}",
                     f"{c.yoco_accuracy:.4f}", f"{c.loss_percent:+.2f}")
                    for c in f.comparisons
                ],
            )
        )
        parts.append(
            f"max CNN loss {f.max_cnn_loss_percent:.2f} % (paper < 0.5 %), "
            f"max transformer loss {f.max_transformer_loss_percent:.2f} % (paper < 0.61 %)"
        )
    return "\n\n".join(parts)
