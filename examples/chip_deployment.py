#!/usr/bin/env python3
"""Deploy a trained network onto the YOCO chip model.

Trains a CNN, then classifies the test set through a ``ChipBackend``.
Every GEMM runs on one of ``YocoBackend``'s per-layer engines (behavioral
IMAs).  The backend's report prices the GEMMs it observed with the
architecture simulator's per-layer terms, the same prices Fig. 8 uses:
power-gated compute, and activations through eDRAM and the on-chip network.
Weight programming comes from the backend's own observation (one-time SIMA
ReRAM writes for the static conv/linear layers).  The result is accuracy
and an energy account from a single simulation, plus the static weight
bytes against the chip's SIMA capacity.

Run:  python examples/chip_deployment.py
"""

from repro.arch.deploy import ChipBackend
from repro.core.config import ChipConfig
from repro.nn import evaluate, synthetic_images, train_classifier
from repro.nn.backend import FloatBackend
from repro.nn.zoo import build_cnn_deep


def main() -> None:
    ds = synthetic_images(n_train=512, n_test=256, noise=1.0, seed=0)
    model = build_cnn_deep(n_classes=ds.n_classes, seed=1)
    print(f"training {model.n_parameters()} parameters ...")
    train_classifier(model, ds, epochs=8, batch_size=64, lr=2e-3, seed=2)

    acc_float = evaluate(model, ds.x_test, ds.y_test, FloatBackend())
    backend = ChipBackend(seed=0)
    acc_chip = evaluate(model, ds.x_test, ds.y_test, backend)
    print(f"\nfloat accuracy:          {acc_float:.4f}")
    print(f"on-chip (analog) accuracy: {acc_chip:.4f} "
          f"(loss {100 * (acc_float - acc_chip):+.2f} %)")

    report = backend.report()
    print(f"\n=== Deployment report ({len(ds.x_test)} inferences) ===")
    print(f"IMA VMMs executed:   {report.vmm_count}")
    print(f"static layers:       {report.static_layers} (SIMA ReRAM, programmed once)")
    print(f"dynamic layers:      {report.dynamic_layers}")
    for name, pj in report.breakdown().items():
        share = 100 * pj / report.total_energy_pj
        print(f"  {name:15s} {pj / 1e6:10.3f} uJ  ({share:4.1f} %)")
    print(f"  {'TOTAL':15s} {report.total_energy_pj / 1e6:10.3f} uJ")
    per_inf = report.total_energy_pj / len(ds.x_test) / 1e6
    print(f"energy per inference: {per_inf:.3f} uJ")

    capacity = ChipConfig().sima_weight_capacity_bytes
    print("\n=== Chip occupancy ===")
    print(f"static weights pinned: {report.static_weight_bytes / 1024:.1f} KB "
          f"of {capacity / 1e6:.0f} MB SIMA capacity")


if __name__ == "__main__":
    main()
