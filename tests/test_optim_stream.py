"""The streamed mini-batch gradient path behind every mini-batch solver.

Three things are pinned here:

* **bit parity** — the loop every solver ran before the stream existed is
  frozen below as the oracle (its batching, its per-step
  ``set_params`` + ``gradient`` round trip), with each numerics epoch's
  step frozen beside it (DESIGN §15): epoch 2's gradient of ``h_k`` and
  three update rules, and epoch 3's fold — the step size inside the
  logistic normaliser, ``µ`` and ``b = µ w_t - c`` inside the rule.  The
  iterate a solver returns must be ``np.array_equal`` to the epoch-3
  oracle's and leave ``rng`` in the same state, for the fused logistic
  stream and for the generic defaults alike, and lie within
  ``EPOCH2_BOUND`` of the epoch-2 oracle's and, for the logistic model,
  within ``EPOCH1_BOUND`` of the epoch-1 one;
* **ownership** — nothing handed to a solve is written, and nothing a
  solve returns is touched by a later one;
* **no per-step allocation** — the property the fused stream's speed rests
  on, guarded with ``tracemalloc``.
"""

import re
import tracemalloc

import numpy as np
import pytest

from repro.core.client import Client
from repro.datasets import ClientData
from repro.models import MLPClassifier, MultinomialLogisticRegression
from repro.models.base import FederatedModel, NeuralModel
from repro.optim import (
    AdamSolver,
    BatchSchedule,
    LocalObjective,
    MomentumSGDSolver,
    SGDSolver,
)
from repro.runtime import LocalTask
from repro.runtime.cohort import solve_cohort

BATCH = 10
DIM, CLASSES = 6, 4

#: The stated bound between a logistic solve (or gradient) under this
#: tree's epoch and under epoch 1: ``max|got - want| / max|want|`` over
#: the iterate.  Observed maximum over this file's grid: 2.8e-15.
EPOCH1_BOUND = 1e-14

#: The stated bound between a solve under epoch 3 and under epoch 2, the
#: same relative gap over the iterate.  Observed maximum over this file's
#: grid (every solver, model, µ and correction): 2.8e-15.
EPOCH2_BOUND = 1e-14


# --------------------------------------------------------------------- #
# The oracle: the pre-stream code, frozen.  Do not "simplify" it towards
# the library — its whole value is that it does not share code with it.
# --------------------------------------------------------------------- #
def _oracle_batches(n, batch_size, epochs, rng):
    per_epoch = 1 if batch_size >= n else -(-n // batch_size)
    total = max(1, int(round(epochs * per_epoch)))
    done = 0
    while done < total:
        order = rng.permutation(n)
        if batch_size >= n:
            epoch = [order]
        else:
            epoch = [order[s : s + batch_size] for s in range(0, n, batch_size)]
        for batch in epoch:
            yield batch
            done += 1
            if done >= total:
                return


def _epoch1_logistic_gradient(model, X, y):
    """Epoch 1: bias added after the product, normalised through ``log``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    scores = X @ model.W + model.b
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    idx = np.arange(len(y))
    delta = np.exp(log_probs)
    delta[idx, y] -= 1.0
    delta /= len(y)
    grad_w = X.T @ delta
    grad_b = delta.sum(axis=0)
    if model.l2 > 0:
        grad_w = grad_w + model.l2 * model.W
        grad_b = grad_b + model.l2 * model.b
    return np.concatenate([grad_w.reshape(-1), grad_b])


def _epoch2_logistic_gradient(model, X, y):
    """Epoch 2: ``[x, 1] @ [W; b]`` both ways; one division normalises."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    X1 = np.hstack([X, np.ones((len(y), 1))])
    Wb = np.vstack([model.W, model.b])
    scores = X1 @ Wb
    shifted = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    delta = probs
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    grad = X1.T @ delta
    if model.l2 > 0:
        grad = grad + model.l2 * Wb
    return grad.reshape(-1)


def _relative_gap(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _epoch3_logistic_gradient(model, X, y, scale, height):
    """Epoch 3: epoch 2's forward on a ``height``-row block (a short batch
    padded with zero rows, as the stacked path pads it), the residual
    times ``scale / m`` and the L2 term times ``scale * l2``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    m = len(y)
    X1 = np.hstack([X, np.ones((m, 1))])
    block = np.zeros((max(m, height), X1.shape[1]))
    block[:, -1] = 1.0
    block[:m] = X1
    Wb = np.vstack([model.W, model.b])
    scores = (block @ Wb)[:m]
    shifted = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    delta = probs
    delta[np.arange(m), y] -= 1.0
    delta *= scale / m
    grad = X1.T @ delta
    if model.l2 > 0:
        grad = grad + (scale * model.l2) * Wb
    return grad.reshape(-1)


def _scaled_gradient(model, X, y, scale, height):
    """Epoch 3's stream step: ``scale`` times the model's gradient."""
    if isinstance(model, MultinomialLogisticRegression):
        return _epoch3_logistic_gradient(model, X, y, scale, height)
    return model.gradient(X, y) * scale


def _oracle_gradient(model, X, y, w, batch, mu, w_ref, correction, logistic):
    model.set_params(w)
    if isinstance(model, MultinomialLogisticRegression):
        grad = logistic(model, X[batch], y[batch])
    else:
        grad = model.gradient(X[batch], y[batch])
    if mu > 0:
        grad = grad + mu * (w - w_ref)
    if correction is not None:
        grad = grad + correction
    return grad


def _oracle_sgd(solver, grads, w):
    for grad in grads(w):
        w -= solver.learning_rate * grad
    return w


def _oracle_momentum(solver, grads, w):
    velocity = np.zeros_like(w)
    for grad in grads(w):
        velocity = solver.momentum * velocity + grad
        w -= solver.learning_rate * velocity
    return w


def _oracle_adam(solver, grads, w):
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    step = 0
    for grad in grads(w):
        step += 1
        m = solver.beta1 * m + (1 - solver.beta1) * grad
        v = solver.beta2 * v + (1 - solver.beta2) * grad**2
        m_hat = m / (1 - solver.beta1**step)
        v_hat = v / (1 - solver.beta2**step)
        w -= solver.learning_rate * m_hat / (np.sqrt(v_hat) + solver.eps)
    return w


# Epoch 3: the stream yields ``scale * grad F``; the rule folds µ and
# ``b = scale * (µ w_t - c)`` in.
def _epoch3_sgd(solver, grads, w, mu, b):
    for grad in grads(w):
        if mu > 0:
            w *= 1.0 - solver.learning_rate * mu
        if b is not None:
            w += b
        w -= grad
    return w


def _epoch3_momentum(solver, grads, w, mu, b):
    u = np.zeros_like(w)  # learning_rate * velocity
    for grad in grads(w):
        u = solver.momentum * u + grad
        if mu > 0:
            u = u + (solver.learning_rate * mu) * w
        if b is not None:
            u = u - b
        w -= u
    return w


def _epoch3_adam(solver, grads, w, mu, b):
    def full(w):
        for grad in grads(w):
            if mu > 0:
                grad = grad + mu * w
            yield grad if b is None else grad - b

    return _oracle_adam(solver, full, w)


SOLVERS = {
    "sgd": (SGDSolver(0.05, batch_size=BATCH), _oracle_sgd, _epoch3_sgd),
    "momentum": (
        MomentumSGDSolver(0.02, momentum=0.9, batch_size=BATCH),
        _oracle_momentum,
        _epoch3_momentum,
    ),
    "adam": (AdamSolver(0.01, batch_size=BATCH), _oracle_adam, _epoch3_adam),
}


def _oracle_solve(
    name, model, X, y, w_start, epochs, rng, mu, w_ref, correction,
    logistic=_epoch2_logistic_gradient,
):
    """The epoch-2 solve: the gradient of ``h_k``, then the rule."""
    solver, rule, _ = SOLVERS[name]

    def grads(w):
        for batch in _oracle_batches(len(y), solver.batch_size, epochs, rng):
            yield _oracle_gradient(
                model, X, y, w, batch, mu, w_ref, correction, logistic
            )

    return rule(solver, grads, np.array(w_start, dtype=np.float64, copy=True))


def _epoch3_solve(
    name, model, X, y, w_start, epochs, rng, mu, w_ref, correction,
    gradient=_scaled_gradient,
):
    """The epoch-3 solve: ``scale * grad F`` per batch, µ and b in the rule."""
    solver, _, rule = SOLVERS[name]
    scale = 1.0 if name == "adam" else solver.learning_rate
    b = None
    if mu > 0:
        b = mu * w_ref
    if correction is not None:
        b = -correction if b is None else b - correction
    if b is not None:
        b = b * scale
    height = min(solver.batch_size, len(y))

    def grads(w):
        for batch in _oracle_batches(len(y), solver.batch_size, epochs, rng):
            model.set_params(w)
            yield gradient(model, X[batch], y[batch], scale, height)

    w = np.array(w_start, dtype=np.float64, copy=True)
    return rule(solver, grads, w, mu, b)


def _data(n, dtype, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, DIM)).astype(dtype)
    y = rng.integers(CLASSES, size=n)
    return X, y


def _models():
    """``(label, model)``: the fused stream, with and without L2, and the autograd one."""
    return [
        ("logistic", MultinomialLogisticRegression(DIM, CLASSES)),
        ("logistic-l2", MultinomialLogisticRegression(DIM, CLASSES, l2=0.3)),
        ("mlp", MLPClassifier(DIM, CLASSES, hidden=5, seed=1)),
    ]


class TestWhichStream:
    def test_logistic_and_autograd_models_override_the_default(self):
        """The default itself is what ``Plain`` (below) trains through."""
        default = FederatedModel.minibatch_gradients
        assert MultinomialLogisticRegression.minibatch_gradients is not default
        assert MLPClassifier.minibatch_gradients is NeuralModel.minibatch_gradients
        assert NeuralModel.minibatch_gradients is not default

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_solvers_own_no_loop(self, name):
        """One ``solve`` for all three; each class keeps only its update rule."""
        solver = SOLVERS[name][0]
        assert "solve" not in vars(type(solver))
        assert "stacked_step" in vars(type(solver))


class TestBitParityWithFrozenLoop:
    @pytest.mark.parametrize("n", [1, 7, 10, 23, 100])
    @pytest.mark.parametrize("epochs", [0, 0.3, 1, 2.5, 20])
    @pytest.mark.parametrize("with_correction", [False, True], ids=["c0", "c"])
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_iterate_and_rng_match(self, name, mu, with_correction, epochs, n):
        solver = SOLVERS[name][0]
        gen = np.random.default_rng(n * 1000 + int(epochs * 10))
        for label, model in _models():
            # The autograd model costs ~20x a logistic step: it gets the
            # corners of the option grid, the closed-form model all of it.
            if label == "mlp" and (mu > 0) != with_correction:
                continue
            for dtype in (np.float64, np.float32):
                X, y = _data(n, dtype, seed=n)
                w_start = gen.normal(size=model.n_params) * 0.3
                w_ref = gen.normal(size=model.n_params) * 0.3
                correction = (
                    gen.normal(size=model.n_params) * 0.1 if with_correction else None
                )
                rng_new = np.random.default_rng(77)
                rng_old = np.random.default_rng(77)
                objective = LocalObjective(
                    model, X, y, w_ref=w_ref, mu=mu, correction=correction
                )
                got = solver.solve(objective, w_start, epochs, rng_new)
                args = (model, X, y, w_start, epochs)
                want = _epoch3_solve(name, *args, rng_old, mu, w_ref, correction)
                case = (label, np.dtype(dtype).name)
                assert np.array_equal(got, want), case
                assert rng_new.integers(2**62) == rng_old.integers(2**62), case
                epoch2 = _oracle_solve(
                    name, *args, np.random.default_rng(77), mu, w_ref, correction
                )
                assert _relative_gap(got, epoch2) <= EPOCH2_BOUND, case
                if label != "mlp":
                    epoch1 = _oracle_solve(
                        name, *args, np.random.default_rng(77), mu, w_ref,
                        correction, logistic=_epoch1_logistic_gradient,
                    )
                    assert _relative_gap(got, epoch1) <= EPOCH1_BOUND, case

    @pytest.mark.parametrize("batches_per_gather", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_wide_rows_gather_a_few_batches_at_a_time(
        self, monkeypatch, batches_per_gather, dtype
    ):
        """Below a whole epoch per gather (wide rows) the values do not move."""
        from repro.models import logistic

        monkeypatch.setattr(
            logistic, "_GATHER_BYTES", batches_per_gather * BATCH * DIM * 8
        )
        model = MultinomialLogisticRegression(DIM, CLASSES, l2=0.3)
        for n, epochs in [(7, 1), (23, 0.3), (47, 2.5), (50, 3)]:
            X, y = _data(n, dtype, seed=n)
            w0 = np.random.default_rng(n).normal(size=model.n_params) * 0.3
            rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
            got = SOLVERS["sgd"][0].solve(
                LocalObjective(model, X, y, w_ref=w0, mu=1.0), w0, epochs, rng_new
            )
            want = _epoch3_solve(
                "sgd", model, X, y, w0, epochs, rng_old, 1.0, w0, None
            )
            assert np.array_equal(got, want), (n, epochs)
            assert rng_new.integers(2**62) == rng_old.integers(2**62)

    @pytest.mark.parametrize("label,model", _models())
    def test_stream_equals_gradient_oracle_step_by_step(self, label, model):
        """Each yielded buffer is ``scale`` times the model's gradient on its
        batch at the live ``w`` (epoch 3's step), never ``h_k``'s: µ, the
        anchor and the correction are the solver's."""
        X, y = _data(23, np.float64)
        gen = np.random.default_rng(3)
        w_ref = gen.normal(size=model.n_params)
        objective = LocalObjective(
            model, X, y, w_ref=w_ref, mu=0.5, correction=gen.normal(size=model.n_params)
        )
        schedule = BatchSchedule(23, BATCH, 2.5)
        w = gen.normal(size=model.n_params)
        batches = schedule.materialize(np.random.default_rng(9))
        stream = objective.minibatch_gradients(
            w, schedule, np.random.default_rng(9), 0.1
        )
        steps = 0
        for batch, grad in zip(batches, stream):
            model.set_params(w)
            want = _scaled_gradient(model, X[batch], y[batch], 0.1, BATCH)
            assert np.array_equal(grad, want)
            w -= grad  # the stream must see this at the next step
            steps += 1
        assert steps == schedule.total == len(batches)
        assert next(stream, None) is None

    def test_model_without_the_new_surface_trains_identically(self):
        """A user model implementing only the abstract methods is untouched."""

        class Plain(FederatedModel):
            def __init__(self):
                self.inner = MultinomialLogisticRegression(DIM, CLASSES)

            n_params = property(lambda self: self.inner.n_params)

            def get_params(self):
                return self.inner.get_params()

            def set_params(self, w):
                self.inner.set_params(w)

            def loss(self, X, y):
                return self.inner.loss(X, y)

            def gradient(self, X, y):
                return _epoch2_logistic_gradient(self.inner, X, y)

            def predict(self, X):
                return self.inner.predict(X)

            def fresh(self):
                return Plain()

        X, y = _data(23, np.float64)
        w0 = np.random.default_rng(1).normal(size=Plain().n_params)
        got = SOLVERS["sgd"][0].solve(
            LocalObjective(Plain(), X, y, w_ref=w0, mu=1.0), w0, 2.5,
            np.random.default_rng(4),
        )
        want = _epoch3_solve(
            "sgd", MultinomialLogisticRegression(DIM, CLASSES), X, y, w0, 2.5,
            np.random.default_rng(4), 1.0, w0, None,
            gradient=lambda model, X, y, scale, height: (
                _epoch2_logistic_gradient(model, X, y) * scale
            ),
        )
        assert np.array_equal(got, want)


class TestLogisticGradientEntry:
    """``gradient()`` is the solve step; the loss stays on the evaluation forward."""

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_three_entries_agree_bitwise_with_the_frozen_formula(self, l2, dtype):
        model = MultinomialLogisticRegression(DIM, CLASSES, l2=l2, init_scale=0.5)
        X, y = _data(23, dtype)
        want = _epoch2_logistic_gradient(model, X, y)
        loss, grad = model.loss_and_gradient(X, y)
        assert np.array_equal(model.gradient(X, y), want)
        assert np.array_equal(grad, want)
        assert loss == model.loss(X, y)
        epoch1 = _epoch1_logistic_gradient(model, X, y)
        assert _relative_gap(want, epoch1) <= EPOCH1_BOUND

    def test_gradient_never_evaluates_the_nll(self, monkeypatch):
        model = MultinomialLogisticRegression(DIM, CLASSES)
        monkeypatch.setattr(
            model, "_nll", lambda *a: pytest.fail("gradient() computed the loss")
        )
        model.gradient(*_data(7, np.float64))


class TestObjectiveValidation:
    @pytest.mark.parametrize("rows", [5, 9])
    def test_row_count_mismatch_is_a_labeled_error(self, rows):
        X, y = _data(7, np.float64)
        model = MultinomialLogisticRegression(DIM, CLASSES)
        with pytest.raises(ValueError, match=rf"X has {rows} rows but y has 7 labels"):
            LocalObjective(model, np.resize(X, (rows, DIM)), y)

    @pytest.mark.parametrize("name", ["w_ref", "correction"])
    @pytest.mark.parametrize("shape", [(1,), (27,), (29,), (1, 28), (28, 1)])
    def test_a_mis_shaped_anchor_is_refused_not_broadcast(self, name, shape):
        """A length-one ``w_ref`` or correction used to spread over every
        coordinate of every step and fail only in ``loss()``."""
        X, y = _data(7, np.float64)
        model = MultinomialLogisticRegression(DIM, CLASSES)
        assert model.n_params == 28
        kwargs = {"w_ref": np.zeros(28), "mu": 1.0, name: np.full(shape, 0.5)}
        with pytest.raises(
            ValueError, match=rf"{name} must have shape \(28,\), got {re.escape(str(shape))}"
        ):
            LocalObjective(model, X, y, **kwargs)

    def test_a_length_one_anchor_raises_at_construction(self):
        X, y = _data(7, np.float64)
        model = MultinomialLogisticRegression(DIM, CLASSES)
        with pytest.raises(ValueError, match=r"w_ref must have shape \(28,\), got \(1,\)"):
            LocalObjective(
                model, X, y, w_ref=np.array([0.5]), mu=1.0,
                correction=np.array([0.1]),
            )
        # Exact shapes, of any dtype, are taken as float64 vectors.
        objective = LocalObjective(
            model, X, y, w_ref=np.zeros(28, np.float32), mu=1.0,
            correction=[0.1] * 28,
        )
        assert objective.w_ref.dtype == objective.correction.dtype == np.float64


def _client(client_id, n, seed):
    X, y = _data(n, np.float64, seed=seed)
    for a in (X, y):
        a.flags.writeable = False
    return ClientData(
        client_id=client_id, train_x=X, train_y=y,
        test_x=X[:0], test_y=y[:0],
    )


class TestOwnership:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_inputs_never_written_and_result_is_fresh(self, name):
        model = MultinomialLogisticRegression(DIM, CLASSES, l2=0.1)
        marker = np.random.default_rng(8).normal(size=model.n_params)
        model.set_params(marker)
        solver = SOLVERS[name][0]
        w_global = np.random.default_rng(2).normal(size=model.n_params)
        correction = np.random.default_rng(3).normal(size=model.n_params)
        # Read-only inputs turn any write into an exception; the copies
        # catch a write through some other alias.
        for a in (w_global, correction):
            a.flags.writeable = False
        kept = w_global.copy(), correction.copy()

        # Device A: 23 samples, final batch of 3.
        a = Client(_client(0, 23, seed=5), model, solver).local_solve(
            w_global, 1.0, 2.5, np.random.default_rng(1), correction=correction
        )
        a_value = a.w.copy()
        assert a.w.flags.owndata and a.w.flags.writeable
        assert not np.shares_memory(a.w, w_global)
        assert not np.array_equal(a.w, w_global)

        # Device B on the same model: 37 samples, final batch of 7.
        b = Client(_client(1, 37, seed=6), model, solver).local_solve(
            w_global, 1.0, 1.3, np.random.default_rng(2), correction=correction
        )
        assert not np.shares_memory(a.w, b.w)
        assert np.array_equal(a.w, a_value)
        assert np.array_equal(w_global, kept[0])
        assert np.array_equal(correction, kept[1])

        # The model still holds exactly what set_params last put there.
        assert np.array_equal(model.get_params(), marker)
        split = DIM * CLASSES
        assert np.array_equal(model.W, marker[:split].reshape(DIM, CLASSES))
        assert np.array_equal(model.b, marker[split:])

    def test_gradient_evaluations_is_the_schedule_total(self):
        model = MultinomialLogisticRegression(DIM, CLASSES)
        w = np.zeros(model.n_params)
        for epochs, want in [(0, 1), (0.3, 1), (1, 3), (2.5, 8), (20, 60)]:
            update = Client(_client(0, 23, 5), model, SOLVERS["sgd"][0]).local_solve(
                w, 0.0, epochs, np.random.default_rng(0)
            )
            assert update.gradient_evaluations == want
            assert want == BatchSchedule(23, BATCH, epochs).total


# --------------------------------------------------------------------- #
# No per-step allocation.  tracemalloc cannot count allocations that have
# already been freed, but it does keep a peak: the memory a step holds at
# its worst above what was live when it began.  An array temporary shows
# up there as its full size.  NumPy's broadcasting ufuncs also allocate an
# iterator buffer of ``np.getbufsize()`` elements per call, which would
# hide anything smaller, so the guard runs with the smallest buffer NumPy
# allows; what is left is ~1 KB of interpreter objects per step, and the
# shapes below make the smallest array the kernel could allocate 8 KB.
# --------------------------------------------------------------------- #
G_BATCH, G_DIM, G_CLASSES = 1024, 16, 64
G_PER_EPOCH = 20
STEP_LIMIT = 4096  # bytes; every (B,1), (dim,C), (B,C), (B,dim), (d,) array is >= 8192


class _Metered(LocalObjective):
    """Records, per step, the peak traced memory above the step's start.

    A step is one full turn of the solver's loop: the stream producing a
    gradient and the solver consuming it.
    """

    def minibatch_gradients(self, w, schedule, rng, scale=1.0):
        self.transients = []
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for grad in super().minibatch_gradients(w, schedule, rng, scale):
            yield grad
            now, peak = tracemalloc.get_traced_memory()
            self.transients.append(peak - base)
            tracemalloc.reset_peak()
            base = now


class _MeteredStacked(MultinomialLogisticRegression):
    """Records, per gathered chunk, each step's peak above its start."""

    def stacked_minibatch_gradients(self, *args, **kwargs):
        chunk = []
        self.__dict__.setdefault("chunks", []).append(chunk)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for G in super().stacked_minibatch_gradients(*args, **kwargs):
            yield G
            now, peak = tracemalloc.get_traced_memory()
            chunk.append(peak - base)
            tracemalloc.reset_peak()
            base = now


def _metered_solve(model, solver, epochs):
    gen = np.random.default_rng(0)
    n = G_PER_EPOCH * G_BATCH
    X = gen.normal(size=(n, G_DIM)).astype(np.float32)
    y = gen.integers(G_CLASSES, size=n)
    w0 = gen.normal(size=model.n_params)
    objective = _Metered(model, X, y, w_ref=w0, mu=1.0, correction=w0.copy())
    old = np.setbufsize(16)
    tracemalloc.start()
    try:
        solver.solve(objective, w0, epochs, np.random.default_rng(1))
    finally:
        tracemalloc.stop()
        np.setbufsize(old)
    return objective.transients


class TestNoPerStepAllocation:
    @pytest.mark.parametrize(
        "solver",
        [
            SGDSolver(0.01, batch_size=G_BATCH),
            MomentumSGDSolver(0.01, batch_size=G_BATCH),
            AdamSolver(0.001, batch_size=G_BATCH),
        ],
        ids=["sgd", "momentum", "adam"],
    )
    def test_same_allocations_for_20_steps_and_400(self, solver):
        """Only a solve's first step (its buffers) and each epoch's first
        step (the ``permutation`` draw) allocate."""
        model = MultinomialLogisticRegression(G_DIM, G_CLASSES, l2=0.1)
        for epochs in (1, 20):
            transients = _metered_solve(model, solver, epochs)
            assert len(transients) == epochs * G_PER_EPOCH
            allocating = [i for i, t in enumerate(transients) if t > STEP_LIMIT]
            assert allocating == list(range(0, len(transients), G_PER_EPOCH))

    @pytest.mark.parametrize(
        "solver",
        [
            SGDSolver(0.01, batch_size=G_BATCH),
            MomentumSGDSolver(0.01, batch_size=G_BATCH),
            AdamSolver(0.001, batch_size=G_BATCH),
        ],
        ids=["sgd", "momentum", "adam"],
    )
    def test_the_stacked_stream_allocates_per_chunk_never_per_step(
        self, monkeypatch, solver
    ):
        """The cohort loop: a chunk's first step builds its one-hot labels
        and scratch; no later step of the chunk allocates."""
        from repro.runtime import cohort

        # Two lanes of G_BATCH-row batches, five steps per gathered chunk.
        monkeypatch.setattr(
            cohort, "_GATHER_CHUNK_BYTES", 5 * 2 * G_BATCH * (G_DIM + 1) * 8
        )
        model = _MeteredStacked(G_DIM, G_CLASSES, l2=0.1)
        gen = np.random.default_rng(0)
        n = G_PER_EPOCH * G_BATCH
        clients = []
        for cid in range(2):
            X = gen.normal(size=(n, G_DIM)).astype(np.float32)
            y = gen.integers(G_CLASSES, size=n)
            data = ClientData(
                client_id=cid, train_x=X, train_y=y, test_x=X[:0], test_y=y[:0]
            )
            clients.append(Client(data, model, solver))
        w0 = gen.normal(size=model.n_params)
        tasks = [
            LocalTask(
                client_id=cid, w_global=w0, mu=1.0, epochs=1.0,
                rng_entropy=(0, 0, cid, 0), correction=w0.copy(),
            )
            for cid in range(2)
        ]
        old = np.setbufsize(16)
        tracemalloc.start()
        try:
            solve_cohort(tasks, clients, model, solver)
        finally:
            tracemalloc.stop()
            np.setbufsize(old)
        assert [len(chunk) for chunk in model.chunks] == [5] * (G_PER_EPOCH // 5)
        for chunk in model.chunks:
            assert chunk[0] > STEP_LIMIT  # the meter sees the chunk's buffers
            assert max(chunk[1:]) <= STEP_LIMIT

    def test_the_guard_sees_the_generic_default_allocate(self):
        """Teeth: the unfused stream trips the same meter at every step."""

        class Unfused(MultinomialLogisticRegression):
            minibatch_gradients = FederatedModel.minibatch_gradients

        transients = _metered_solve(
            Unfused(G_DIM, G_CLASSES, l2=0.1), SGDSolver(0.01, batch_size=G_BATCH), 1
        )
        assert min(transients) > STEP_LIMIT
