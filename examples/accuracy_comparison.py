#!/usr/bin/env python3
"""Fig. 6(f) end to end: train networks, deploy them on analog hardware.

Trains a CNN and a transformer from scratch on synthetic tasks, then runs
the same trained weights through three arithmetic substrates:

* float        — the "Original" bars (exact);
* int8         — exact integer quantized GEMM (isolates quantization loss);
* YOCO analog  — the behavioral IMA path with calibrated error injection
                 and 8-bit time-domain readout.

Also reports the modeled compute energy the YOCO backend accumulated while
classifying the test set — accuracy and energy from one simulation.

Run:  python examples/accuracy_comparison.py
"""

from repro.nn import (
    FloatBackend,
    QuantizedBackend,
    YocoBackend,
    evaluate,
    synthetic_images,
    synthetic_sequences,
    train_classifier,
)
from repro.nn.zoo import build_cnn_deep, build_transformer_small


def main() -> None:
    print("=== CNN benchmark (synthetic image classification) ===")
    image_ds = synthetic_images(n_train=1024, n_test=512, noise=1.2, seed=0)
    cnn = build_cnn_deep(n_classes=image_ds.n_classes, seed=1)
    history = train_classifier(cnn, image_ds, epochs=10, batch_size=64, lr=2e-3, seed=2)
    print(f"trained {cnn.n_parameters()} parameters "
          f"(final loss {history.final_loss:.3f})")
    _compare(cnn, image_ds.x_test, image_ds.y_test)

    print("\n=== Transformer benchmark (synthetic motif detection) ===")
    seq_ds = synthetic_sequences(n_train=1024, n_test=512, corruption=0.25, seed=3)
    transformer = build_transformer_small(n_classes=seq_ds.n_classes, seed=4)
    history = train_classifier(
        transformer, seq_ds, epochs=18, batch_size=64, lr=3e-3, seed=5
    )
    print(f"trained {transformer.n_parameters()} parameters "
          f"(final loss {history.final_loss:.3f})")
    _compare(transformer, seq_ds.x_test, seq_ds.y_test)


def _compare(model, x_test, y_test) -> None:
    acc_float = evaluate(model, x_test, y_test, FloatBackend())
    acc_int8 = evaluate(model, x_test, y_test, QuantizedBackend())
    yoco = YocoBackend(mode="fast", seed=0)
    acc_yoco = evaluate(model, x_test, y_test, yoco)
    print(f"  float (Original):    {acc_float:.4f}")
    print(f"  int8 exact:          {acc_int8:.4f}  "
          f"(quantization loss {100 * (acc_float - acc_int8):+.2f} %)")
    print(f"  YOCO analog:         {acc_yoco:.4f}  "
          f"(total loss {100 * (acc_float - acc_yoco):+.2f} %; "
          f"paper: < 0.5 % CNN / < 0.61 % transformer)")
    print(f"  modeled compute: {yoco.total_vmm_count} IMA VMMs, "
          f"{yoco.total_energy_pj / 1e6:.2f} uJ over the test set")


if __name__ == "__main__":
    main()
