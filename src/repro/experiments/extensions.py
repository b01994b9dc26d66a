"""Extension studies beyond the paper's figures.

Three analyses the paper motivates but does not plot, built on the same
substrates:

* :func:`corner_sweep` — MAC accuracy across PVT corners and temperatures.
  The paper runs Monte-Carlo only at TT/25 °C; the sweep shows *why* that
  suffices: charge-domain computation is ratiometric (a global capacitance
  shift cancels in every charge share), so corners move the statistics very
  little.
* :func:`noise_robustness_sweep` — end-to-end accuracy vs analog error
  magnitude, quantifying the "inherent tolerance of DNNs to computational
  noise" the introduction leans on, and locating the cliff.
* :func:`endurance_analysis` — the hybrid-memory argument in lifetime
  terms: mapping a transformer's dynamic matrices onto ReRAM would wear the
  cells out in days; SRAM DIMAs make the write load a non-issue.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro import constants
from repro.analog.montecarlo import run_monte_carlo
from repro.analog.variation import Corner, VariationModel
from repro.core.array import mac_voltage_trial
from repro.core.ima import IMAErrorModel
from repro.experiments.report import format_table
from repro.models import get_workload
from repro.nn.backend import FloatBackend, YocoBackend
from repro.nn.datasets import synthetic_images
from repro.nn.train import evaluate, train_classifier
from repro.nn.zoo import build_cnn_small


# -- PVT corner sweep -----------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CornerResult:
    corner: Corner
    temperature_c: float
    mean_shift_mv: float  # systematic MAC-voltage shift vs TT/25C nominal
    three_sigma_mv: float


@dataclasses.dataclass(frozen=True)
class CornerSweepResult:
    results: "tuple[CornerResult, ...]"

    @property
    def worst_three_sigma_mv(self) -> float:
        return max(r.three_sigma_mv for r in self.results)

    @property
    def worst_mean_shift_mv(self) -> float:
        return max(abs(r.mean_shift_mv) for r in self.results)


def corner_sweep(
    n_samples: int = 200,
    seed: int = 0,
    temperatures: "tuple[float, ...]" = (25.0, 85.0),
) -> CornerSweepResult:
    """Monte-Carlo the MAC voltage across corners and temperatures.

    The TDC's reference clocking tracks the corner (the silicon-verified
    TDC of [10] is self-timed), so the array-level MAC voltage is the
    corner-sensitive quantity analysed here.
    """
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 256, (constants.ARRAY_ROWS, constants.CBS_PER_ARRAY))
    x = rng.integers(0, 256, constants.ARRAY_ROWS)

    def run(corner: Corner, temperature: float):
        variation = VariationModel.typical(corner=corner, temperature_c=temperature)
        trial = mac_voltage_trial(weights, x, variation)
        return run_monte_carlo(trial, n_samples, seed=seed)

    nominal = run(Corner.TT, 25.0).mean
    results: List[CornerResult] = []
    for corner in (Corner.TT, Corner.FF, Corner.SS):
        for temperature in temperatures:
            mc = run(corner, temperature)
            results.append(
                CornerResult(
                    corner=corner,
                    temperature_c=temperature,
                    mean_shift_mv=(mc.mean - nominal) * 1e3,
                    three_sigma_mv=mc.three_sigma * 1e3,
                )
            )
    return CornerSweepResult(results=tuple(results))


def format_corner_sweep(result: CornerSweepResult) -> str:
    table = format_table(
        ("corner", "temp C", "mean shift mV", "3 sigma mV"),
        [
            (r.corner.value.upper(), f"{r.temperature_c:.0f}",
             f"{r.mean_shift_mv:+.3f}", f"{r.three_sigma_mv:.3f}")
            for r in result.results
        ],
    )
    lsb_mv = constants.LSB_VOLT * 1e3
    return table + (
        f"\nworst 3 sigma {result.worst_three_sigma_mv:.2f} mV, worst mean "
        f"shift {result.worst_mean_shift_mv:.2f} mV — both under the "
        f"{lsb_mv:.2f} mV LSB: the ratiometric charge-sharing arithmetic "
        f"cancels global PVT shifts"
    )


# -- noise robustness -------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class NoisePoint:
    noise_scale: float
    accuracy: float
    loss_percent: float


@dataclasses.dataclass(frozen=True)
class NoiseRobustnessResult:
    baseline_accuracy: float
    points: "tuple[NoisePoint, ...]"

    def cliff_scale(self, tolerance_percent: float = 2.0) -> Optional[float]:
        """Smallest tested noise scale whose loss exceeds the tolerance."""
        for point in self.points:
            if point.loss_percent > tolerance_percent:
                return point.noise_scale
        return None


def noise_robustness_sweep(
    scales: "tuple[float, ...]" = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    seed: int = 0,
) -> NoiseRobustnessResult:
    """Accuracy of a trained CNN vs scaled analog error magnitude.

    Scale 1.0 is the calibrated YOCO error model; larger scales emulate
    noisier devices (or lower-resolution readout margins).
    """
    ds = synthetic_images(n_train=512, n_test=256, noise=1.2, seed=seed)
    model = build_cnn_small(n_classes=ds.n_classes, seed=seed + 1)
    train_classifier(model, ds, epochs=8, batch_size=64, lr=2e-3, seed=seed + 2)
    baseline = evaluate(model, ds.x_test, ds.y_test, FloatBackend())
    base_error = IMAErrorModel()
    points: List[NoisePoint] = []
    for scale in scales:
        error_model = IMAErrorModel(
            read_noise_codes=base_error.read_noise_codes * scale,
            column_gain_sigma=base_error.column_gain_sigma * scale,
            column_offset_codes=base_error.column_offset_codes * scale,
        )
        backend = YocoBackend(mode="fast", error_model=error_model, seed=seed + 3)
        accuracy = evaluate(model, ds.x_test, ds.y_test, backend)
        points.append(
            NoisePoint(
                noise_scale=scale,
                accuracy=accuracy,
                loss_percent=100.0 * (baseline - accuracy),
            )
        )
    return NoiseRobustnessResult(baseline_accuracy=baseline, points=tuple(points))


def format_noise_robustness(result: NoiseRobustnessResult) -> str:
    table = format_table(
        ("noise scale", "accuracy", "loss %"),
        [
            (f"{p.noise_scale:.1f}x", f"{p.accuracy:.4f}", f"{p.loss_percent:+.2f}")
            for p in result.points
        ],
    )
    cliff = result.cliff_scale()
    cliff_text = f"{cliff:.1f}x" if cliff is not None else "beyond the sweep"
    return (
        f"float baseline accuracy: {result.baseline_accuracy:.4f}\n"
        + table
        + f"\n2 %-loss cliff at noise scale: {cliff_text}"
    )


# -- pipeline scaling --------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SeqLenPoint:
    seq_len: int
    speedup: float
    bottleneck_stage: str


@dataclasses.dataclass(frozen=True)
class SeqLenSweepResult:
    model: str
    points: "tuple[SeqLenPoint, ...]"


def pipeline_seqlen_sweep(
    model_name: str = "gpt_large",
    seq_lens: "tuple[int, ...]" = (64, 128, 256, 512, 1024, 2048),
) -> SeqLenSweepResult:
    """Fig. 10 extension: pipeline speedup vs context length.

    As the context grows, the score and context-refinement stages grow with
    ``n`` while the QKV stage stays fixed — the pipeline balance (and with
    it the speedup) shifts, which is why long-context decoders pipeline
    worse than compact encoders.
    """
    from repro.arch.pipeline import AttentionPipelineModel, FIG10_GEOMETRIES

    base = FIG10_GEOMETRIES[model_name]
    model = AttentionPipelineModel()
    points: List[SeqLenPoint] = []
    stage_names = ("qkv", "xfer", "score", "sfu", "av")
    for seq_len in seq_lens:
        geom = dataclasses.replace(base, seq_len=seq_len)
        result = model.evaluate(geom)
        last = model.token_stages(geom, seq_len - 1)
        bottleneck = stage_names[int(np.argmax(last.as_list()))]
        points.append(
            SeqLenPoint(seq_len=seq_len, speedup=result.speedup, bottleneck_stage=bottleneck)
        )
    return SeqLenSweepResult(model=model_name, points=tuple(points))


def format_seqlen_sweep(result: SeqLenSweepResult) -> str:
    table = format_table(
        ("seq len", "speedup", "bottleneck stage"),
        [(p.seq_len, f"{p.speedup:.2f}x", p.bottleneck_stage) for p in result.points],
    )
    return f"model: {result.model}\n{table}"


# -- endurance -----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class EnduranceResult:
    model: str
    dynamic_bytes_per_inference: int
    inferences_per_second: float
    reram_lifetime_days: float
    sram_write_energy_uj_per_inf: float
    reram_write_energy_uj_per_inf: float

    @property
    def energy_ratio(self) -> float:
        return self.reram_write_energy_uj_per_inf / self.sram_write_energy_uj_per_inf


def endurance_analysis(
    model_name: str = "qdqbert",
    inferences_per_second: float = 100.0,
    endurance_cycles: int = 10**7,
) -> EnduranceResult:
    """Lifetime of ReRAM cells if a transformer's dynamic matrices lived there.

    Every inference rewrites the K/Q/V score operands.  A cell rewritten
    ``inferences_per_second`` times per second against a 1e7-cycle endurance
    budget dies in ``endurance / rate`` seconds — the quantitative version
    of the introduction's "low-endurance ... hampers dynamic matrix
    computations".
    """
    workload = get_workload(model_name)
    dynamic_bytes = sum(layer.dynamic_weight_bytes for layer in workload.layers)
    if dynamic_bytes == 0:
        raise ValueError(f"{model_name} has no dynamic operands")
    # Each dynamic bit rewritten once per inference.
    lifetime_s = endurance_cycles / inferences_per_second
    lifetime_days = lifetime_s / 86_400.0
    bits = dynamic_bytes * 8
    sram_uj = bits * constants.SRAM_WRITE_PJ_PER_BIT * 1e-6  # pJ -> uJ
    reram_uj = bits * constants.RERAM_WRITE_PJ_PER_BIT * 1e-6
    return EnduranceResult(
        model=model_name,
        dynamic_bytes_per_inference=dynamic_bytes,
        inferences_per_second=inferences_per_second,
        reram_lifetime_days=lifetime_days,
        sram_write_energy_uj_per_inf=sram_uj,
        reram_write_energy_uj_per_inf=reram_uj,
    )


def format_endurance(result: EnduranceResult) -> str:
    return (
        f"model: {result.model}\n"
        f"dynamic operand traffic: "
        f"{result.dynamic_bytes_per_inference / 1e6:.2f} MB/inference\n"
        f"at {result.inferences_per_second:.0f} inf/s on ReRAM "
        f"(1e7-cycle endurance): cells die after "
        f"{result.reram_lifetime_days:.0f} days\n"
        f"write energy per inference: SRAM DIMA "
        f"{result.sram_write_energy_uj_per_inf:.2f} uJ vs ReRAM "
        f"{result.reram_write_energy_uj_per_inf:.1f} uJ "
        f"({result.energy_ratio:.0f}x) — the hybrid design dodges both"
    )
