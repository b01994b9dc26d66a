"""Fig. 6: circuit-level accuracy characterisation (all six panels)."""

import os

from conftest import emit

from repro import constants
from repro.experiments.fig6 import (
    format_fig6,
    run_fig6a,
    run_fig6bc,
    run_fig6d,
    run_fig6e,
    run_fig6f,
)

#: Full fidelity by default (30 Monte-Carlo seeds, full training); set
#: YOCO_BENCH_QUICK=1 for a fast smoke pass.
FULL = not bool(int(os.environ.get("YOCO_BENCH_QUICK", "0")))


def test_fig6a_transfer_curve(benchmark):
    result = benchmark.pedantic(run_fig6a, kwargs={"seed": 0}, rounds=1, iterations=1)
    benchmark.extra_info["max_inl_lsb"] = result.max_abs_inl_lsb
    benchmark.extra_info["max_dnl_lsb"] = result.max_abs_dnl_lsb
    assert result.max_abs_inl_lsb < 2.0 and result.max_abs_dnl_lsb < 2.0
    emit("Fig. 6(a) — input conversion TC + INL/DNL", format_fig6(a=result))


def test_fig6bc_mac_transfer_curves(benchmark):
    step = 1 if FULL else 4
    result = benchmark.pedantic(
        run_fig6bc, kwargs={"seed": 0, "step": step}, rounds=1, iterations=1
    )
    benchmark.extra_info["max_mac_error_percent"] = result.max_error_percent
    assert result.max_error_percent < 0.68
    emit("Fig. 6(b,c) — 8-bit MAC TCs and error", format_fig6(bc=result))


def _fig6d_sweep(seeds):
    return [run_fig6d(n_samples=2000, seed=seed) for seed in seeds]


def test_fig6d_monte_carlo(benchmark):
    """The paper's 2,000-sample Monte-Carlo on every seed of a sweep: seeds
    0-29 at full fidelity, 0-2 in smoke mode.  Each seed's 3 sigma must sit
    within 0.35 mV of the paper's 2.25 mV and under 1 LSB."""
    seeds = range(30) if FULL else range(3)
    results = benchmark.pedantic(_fig6d_sweep, args=(seeds,), rounds=1, iterations=1)
    sigmas_mv = [r.three_sigma * 1e3 for r in results]
    benchmark.extra_info["seeds"] = len(sigmas_mv)
    benchmark.extra_info["three_sigma_mv_min"] = min(sigmas_mv)
    benchmark.extra_info["three_sigma_mv_max"] = max(sigmas_mv)
    benchmark.extra_info["three_sigma_mv_mean"] = sum(sigmas_mv) / len(sigmas_mv)
    for seed, sigma_mv in zip(seeds, sigmas_mv):
        assert abs(sigma_mv - 2.25) <= 0.35, f"seed {seed}: 3 sigma {sigma_mv:.3f} mV"
        assert sigma_mv < constants.LSB_VOLT * 1e3
    emit(
        f"Fig. 6(d) — Monte-Carlo (n=2000, seed 0; 3 sigma over seeds "
        f"0-{len(sigmas_mv) - 1}: {min(sigmas_mv):.3f}-{max(sigmas_mv):.3f} mV)",
        format_fig6(d=results[0]),
    )


def test_fig6e_error_stack(benchmark):
    result = benchmark.pedantic(
        run_fig6e, kwargs={"seed": 0, "n_vectors": 4}, rounds=1, iterations=1
    )
    benchmark.extra_info["end_to_end_percent"] = result.end_to_end_error_percent
    assert result.end_to_end_error_percent < 0.98
    emit("Fig. 6(e) — MAC error comparison", format_fig6(e=result))


def test_fig6f_inference_accuracy(benchmark):
    result = benchmark.pedantic(
        run_fig6f, kwargs={"quick": not FULL, "seed": 0}, rounds=1, iterations=1
    )
    benchmark.extra_info["max_cnn_loss_percent"] = result.max_cnn_loss_percent
    benchmark.extra_info["max_tf_loss_percent"] = result.max_transformer_loss_percent
    # Reproduction band: paper reports <0.5 % (CNN) and <0.61 % (TF); the
    # quick smoke setting trains weaker models and gets more headroom.
    limit = 1.0 if FULL else 8.0
    assert result.max_cnn_loss_percent < limit
    assert result.max_transformer_loss_percent < limit
    emit("Fig. 6(f) — DNN inference accuracy comparison", format_fig6(f=result))
