"""Synthetic datasets for the accuracy-loss experiments.

The paper evaluates accuracy on pretrained ImageNet/GLUE-class models; those
weights and datasets are not available offline, so Fig. 6(f) runs on small
stand-in networks *trained from scratch* on synthetic tasks (the benchmark
each stands for is named in :func:`repro.experiments.fig6.run_fig6f`).  The tasks are built to have real structure — class
templates distorted by noise, token motifs embedded in random sequences —
so trained networks sit meaningfully below 100 % accuracy and analog error
can actually move the needle.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class Dataset:
    """A train/test split of one synthetic task."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        if len(self.x_train) != len(self.y_train):
            raise ValueError("train inputs/labels length mismatch")
        if len(self.x_test) != len(self.y_test):
            raise ValueError("test inputs/labels length mismatch")


def synthetic_images(
    n_train: int = 512,
    n_test: int = 256,
    n_classes: int = 4,
    channels: int = 1,
    size: int = 16,
    noise: float = 0.9,
    seed: int = 0,
) -> Dataset:
    """Image classification: smoothed class templates + heavy pixel noise.

    Each class owns a random low-frequency template; samples are the
    template plus Gaussian noise, so classes overlap and accuracy is noise-
    limited (mimicking a hard natural-image task at toy scale).
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, (n_classes, channels, size, size))
    # Low-pass the templates with a separable box blur for spatial structure.
    kernel = np.ones(5) / 5.0
    templates = base
    for axis in (2, 3):
        templates = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), axis, templates
        )
    templates *= 3.0

    def make_split(n: int, offset: int) -> Tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, n_classes, n)
        x = templates[labels] + rng.normal(0.0, noise, (n, channels, size, size))
        return x.astype(float), labels.astype(np.int64)

    x_train, y_train = make_split(n_train, 0)
    x_test, y_test = make_split(n_test, 1)
    return Dataset(x_train, y_train, x_test, y_test, n_classes)


def synthetic_sequences(
    n_train: int = 512,
    n_test: int = 256,
    n_classes: int = 4,
    vocab_size: int = 32,
    length: int = 24,
    motif_length: int = 4,
    corruption: float = 0.35,
    seed: int = 0,
) -> Dataset:
    """Sequence classification: class-specific token motifs in random noise.

    Each class owns a short token motif inserted at a random position into a
    uniformly random sequence; a fraction of motif tokens is corrupted, so
    the task requires contextual aggregation (what attention is for) and is
    not saturated.
    """
    if vocab_size <= motif_length:
        raise ValueError("vocab must exceed motif length")
    rng = np.random.default_rng(seed)
    motifs = np.stack(
        [rng.choice(vocab_size, size=motif_length, replace=False) for _ in range(n_classes)]
    )

    def make_split(n: int) -> Tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, n_classes, n)
        x = rng.integers(0, vocab_size, (n, length))
        for i, label in enumerate(labels):
            pos = rng.integers(0, length - motif_length + 1)
            motif = motifs[label].copy()
            corrupt = rng.random(motif_length) < corruption
            motif[corrupt] = rng.integers(0, vocab_size, corrupt.sum())
            x[i, pos : pos + motif_length] = motif
        return x.astype(np.int64), labels.astype(np.int64)

    x_train, y_train = make_split(n_train)
    x_test, y_test = make_split(n_test)
    return Dataset(x_train, y_train, x_test, y_test, n_classes)
