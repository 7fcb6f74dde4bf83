"""Tests for the autograd-backed models (MLP, CharLSTM, SentimentLSTM)."""

import numpy as np
import pytest

from repro.autograd import numeric_gradient
from repro.models import CharLSTM, MLPClassifier, SentimentLSTM
from repro.spec import build, describe


class TestMLP:
    def test_shapes(self, rng):
        m = MLPClassifier(dim=6, num_classes=3, hidden=8, seed=0)
        X = rng.normal(size=(5, 6))
        assert m.predict(X).shape == (5,)
        assert m.forward_logits(X).shape == (5, 3)

    def test_flat_roundtrip(self):
        m = MLPClassifier(dim=4, num_classes=2, hidden=3, seed=0)
        w = np.arange(float(m.n_params))
        m.set_params(w)
        np.testing.assert_array_equal(m.get_params(), w)

    def test_gradient_matches_numeric(self, rng):
        m = MLPClassifier(dim=3, num_classes=2, hidden=4, seed=1)
        X = rng.normal(size=(6, 3))
        y = rng.integers(2, size=6)
        w0 = m.get_params()

        def f(w):
            m.set_params(w)
            return m.loss(X, y)

        numeric = numeric_gradient(f, w0, eps=1e-5)
        m.set_params(w0)
        analytic = m.gradient(X, y)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-6)

    def test_sgd_reduces_loss(self, rng):
        m = MLPClassifier(dim=4, num_classes=3, hidden=8, seed=2)
        X = rng.normal(size=(40, 4))
        y = (X @ rng.normal(size=(4, 3))).argmax(axis=1)
        w = m.get_params()
        initial = m.loss(X, y)
        for _ in range(60):
            m.set_params(w)
            w = w - 0.3 * m.gradient(X, y)
        m.set_params(w)
        assert m.loss(X, y) < initial * 0.7

    def test_fresh_reproduces_init(self):
        m = MLPClassifier(dim=4, num_classes=2, hidden=3, seed=5)
        np.testing.assert_array_equal(m.fresh().get_params(), m.fresh().get_params())

    def test_loss_and_gradient_fused(self, rng):
        m = MLPClassifier(dim=3, num_classes=2, hidden=4, seed=1)
        X = rng.normal(size=(5, 3))
        y = rng.integers(2, size=5)
        loss, grad = m.loss_and_gradient(X, y)
        assert loss == pytest.approx(m.loss(X, y))
        np.testing.assert_allclose(grad, m.gradient(X, y))


class TestCharLSTM:
    @pytest.fixture
    def model(self):
        return CharLSTM(vocab_size=12, embed_dim=4, hidden=6, num_layers=2, seed=0)

    def test_shapes(self, model, rng):
        X = rng.integers(12, size=(3, 5))
        assert model.predict(X).shape == (3,)
        assert 0 <= model.predict(X).min() and model.predict(X).max() < 12

    def test_loss_near_log_vocab_at_init(self, model, rng):
        X = rng.integers(12, size=(8, 5))
        y = rng.integers(12, size=8)
        assert model.loss(X, y) == pytest.approx(np.log(12), rel=0.3)

    def test_gradient_matches_numeric(self, rng):
        m = CharLSTM(vocab_size=5, embed_dim=2, hidden=3, num_layers=1, seed=1)
        X = rng.integers(5, size=(3, 3))
        y = rng.integers(5, size=3)
        w0 = m.get_params()

        def f(w):
            m.set_params(w)
            return m.loss(X, y)

        numeric = numeric_gradient(f, w0, eps=1e-5)
        m.set_params(w0)
        np.testing.assert_allclose(m.gradient(X, y), numeric, rtol=1e-3, atol=1e-6)

    def test_sgd_memorizes_tiny_corpus(self, rng):
        m = CharLSTM(vocab_size=4, embed_dim=3, hidden=8, num_layers=1, seed=2)
        X = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 0]])
        y = np.array([3, 0, 1])
        w = m.get_params()
        initial = m.loss(X, y)
        for _ in range(150):
            m.set_params(w)
            w = w - 0.5 * m.gradient(X, y)
        m.set_params(w)
        assert m.loss(X, y) < initial * 0.3
        assert m.accuracy(X, y) == 1.0

    def test_paper_scale_constructor(self):
        m = CharLSTM()  # defaults are the paper's architecture
        assert m.vocab_size == 80 and m.hidden == 100 and m.num_layers == 2

    def test_fresh_is_build_of_describe(self, model):
        spec = describe(model)
        assert spec["type"] == "CharLSTM" and spec["hidden"] == model.hidden
        for f in (model.fresh(), build(spec, "model")):
            assert describe(f) == spec
            assert f.n_params == model.n_params
            np.testing.assert_array_equal(f.get_params(), model.get_params())


class TestSentimentLSTM:
    @pytest.fixture
    def model(self):
        return SentimentLSTM(
            vocab_size=20, embed_dim=4, hidden=5, num_layers=1, seed=0
        )

    def test_predict_binary(self, model, rng):
        X = rng.integers(20, size=(6, 4))
        pred = model.predict(X)
        assert set(np.unique(pred)) <= {0, 1}

    def test_loss_near_log2_at_init(self, model, rng):
        X = rng.integers(20, size=(8, 4))
        y = rng.integers(2, size=8)
        assert model.loss(X, y) == pytest.approx(np.log(2), rel=0.3)

    def test_frozen_embedding_by_default(self, model):
        names = [n for n, _ in model.module.named_parameters()]
        assert not any("embedding" in n for n in names)

    def test_trainable_embedding_optional(self):
        m = SentimentLSTM(
            vocab_size=10, embed_dim=3, hidden=4, num_layers=1,
            trainable_embedding=True, seed=0,
        )
        names = [n for n, _ in m.module.named_parameters()]
        assert any("embedding" in n for n in names)

    def test_gradient_matches_numeric(self, rng):
        m = SentimentLSTM(vocab_size=6, embed_dim=2, hidden=3, num_layers=1, seed=1)
        X = rng.integers(6, size=(4, 3))
        y = rng.integers(2, size=4)
        w0 = m.get_params()

        def f(w):
            m.set_params(w)
            return m.loss(X, y)

        numeric = numeric_gradient(f, w0, eps=1e-5)
        m.set_params(w0)
        np.testing.assert_allclose(m.gradient(X, y), numeric, rtol=1e-3, atol=1e-6)

    def test_learns_separable_sentiment(self, rng):
        # Tokens < 3 mean positive; >= 3 mean negative.
        m = SentimentLSTM(
            vocab_size=6, embed_dim=4, hidden=6, num_layers=1,
            trainable_embedding=True, seed=3,
        )
        X_pos = rng.integers(0, 3, size=(20, 4))
        X_neg = rng.integers(3, 6, size=(20, 4))
        X = np.concatenate([X_pos, X_neg])
        y = np.array([1] * 20 + [0] * 20)
        w = m.get_params()
        for _ in range(120):
            m.set_params(w)
            w = w - 0.5 * m.gradient(X, y)
        m.set_params(w)
        assert m.accuracy(X, y) > 0.9
