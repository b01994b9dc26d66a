"""Datasets and training: learnability, optimizer mechanics."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.datasets import synthetic_images, synthetic_sequences
from repro.nn.train import Adam, evaluate, evaluate_float_forward, train_classifier
from repro.nn.zoo import build_cnn_small, build_transformer_tiny


class TestDatasets:
    def test_image_shapes_and_labels(self):
        ds = synthetic_images(n_train=64, n_test=32, n_classes=3, size=8, seed=0)
        assert ds.x_train.shape == (64, 1, 8, 8)
        assert ds.y_train.shape == (64,)
        assert set(np.unique(ds.y_train)) <= set(range(3))
        assert ds.n_classes == 3

    def test_images_reproducible(self):
        a = synthetic_images(n_train=16, n_test=8, seed=5)
        b = synthetic_images(n_train=16, n_test=8, seed=5)
        assert np.array_equal(a.x_train, b.x_train)

    def test_images_have_class_structure(self):
        """Same-class images correlate more than cross-class images."""
        ds = synthetic_images(n_train=200, n_test=8, n_classes=2, noise=0.5, seed=1)
        flat = ds.x_train.reshape(len(ds.x_train), -1)
        class0 = flat[ds.y_train == 0]
        class1 = flat[ds.y_train == 1]
        within = np.corrcoef(class0[0], class0[1])[0, 1]
        across = np.corrcoef(class0[0], class1[0])[0, 1]
        assert within > across

    def test_sequences_contain_motifs(self):
        ds = synthetic_sequences(
            n_train=64, n_test=8, n_classes=2, corruption=0.0, seed=2
        )
        assert ds.x_train.shape[1] == 24
        assert ds.x_train.dtype == np.int64

    def test_sequence_vocab_bounds(self):
        ds = synthetic_sequences(n_train=32, n_test=8, vocab_size=16, seed=3)
        assert ds.x_train.min() >= 0 and ds.x_train.max() < 16

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            synthetic_images(n_classes=1)
        with pytest.raises(ValueError):
            synthetic_sequences(vocab_size=3, motif_length=4)


class TestAdam:
    def test_minimizes_quadratic(self):
        param = Tensor(np.array([5.0]), requires_grad=True)
        optimizer = Adam([param], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            loss = (param * param).sum()
            loss.backward()
            optimizer.step()
        assert abs(param.data[0]) < 0.05

    def test_skips_params_without_grad(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        optimizer = Adam([a, b], lr=0.1)
        (a * a).sum().backward()
        optimizer.step()
        assert b.data[0] == 2.0

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)


class TestTraining:
    def test_cnn_learns_separable_task(self):
        ds = synthetic_images(n_train=192, n_test=96, noise=0.6, seed=4)
        model = build_cnn_small(n_classes=ds.n_classes, seed=5)
        history = train_classifier(model, ds, epochs=5, batch_size=32, lr=2e-3, seed=6)
        assert history.losses[-1] < history.losses[0]
        acc = evaluate(model, ds.x_test, ds.y_test)
        assert acc > 0.8

    def test_transformer_learns_motif_task(self):
        ds = synthetic_sequences(n_train=192, n_test=96, corruption=0.0, seed=7)
        model = build_transformer_tiny(n_classes=ds.n_classes, seed=8)
        history = train_classifier(model, ds, epochs=8, batch_size=32, lr=3e-3, seed=9)
        assert history.losses[-1] < history.losses[0]
        acc = evaluate(model, ds.x_test, ds.y_test)
        assert acc > 0.5  # 4-class chance = 0.25

    def test_infer_path_accuracy_equals_forward_path(self):
        ds = synthetic_images(n_train=64, n_test=48, seed=10)
        model = build_cnn_small(n_classes=ds.n_classes, seed=11)
        train_classifier(model, ds, epochs=2, batch_size=32, seed=12)
        assert evaluate(model, ds.x_test, ds.y_test) == pytest.approx(
            evaluate_float_forward(model, ds.x_test, ds.y_test)
        )

    def test_history_validation(self):
        from repro.nn.train import TrainHistory

        with pytest.raises(ValueError):
            TrainHistory().final_loss

    def test_rejects_bad_epochs(self):
        ds = synthetic_images(n_train=16, n_test=8, seed=0)
        model = build_cnn_small(seed=0)
        with pytest.raises(ValueError):
            train_classifier(model, ds, epochs=0)
