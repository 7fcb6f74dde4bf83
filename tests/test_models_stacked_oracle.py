"""Bit parity of the stacked logistic stream with the kernel it replaced.

The cohort step loop used to call ``stacked_gradient`` once per step: a
workspace dict cached on the model, parameter views cached by identity, a
five-call label scatter and a copy of both gradient blocks into the
result.  It now steps through ``stacked_minibatch_gradients``, which
builds everything step-independent once per gathered chunk — "the same
per-element operations in the same order", hence the same bits.  That
claim is pinned here the way ``tests/test_optim_stream.py`` pins the
scalar stream and ``tests/test_nn_fused_lstm_oracle.py`` the fused LSTM:
the pre-change kernel and the pre-change ``solve_cohort`` step loop are
frozen below as the oracle, and the library must be ``np.array_equal`` to
them over the shapes the cohort path produces and over whole solves.

The two things the rewrite *assumes* about NumPy — ``x - 0.0`` is bitwise
``x``, and ``np.matmul(out=)`` into the strided per-client view of the
gradient stack equals matmul-then-copy — have their own tests, so a change
in a NumPy release fails with its cause named rather than as a parity diff.

Also here: the shared model holds no solve-time state any more, and the
default stream (MLP, fused CharLSTM) is the per-step loop it replaced.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.client import ClientUpdate
from repro.datasets import make_synthetic
from repro.faults.models import FaultDecision
from repro.models import CharLSTM, MLPClassifier, MultinomialLogisticRegression
from repro.models.base import FederatedModel
from repro.optim import AdamSolver, SGDSolver
from repro.runtime import CohortExecutor, LocalTask
from repro.runtime.cohort import solve_cohort
from repro.runtime.executor import task_effective_epochs, task_rng
from repro.runtime.packing import plan_cohort
from repro.systems import FractionStragglers, PowerLawStragglers

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

DIM, CLASSES = 6, 4


# --------------------------------------------------------------------- #
# The oracle: the pre-change code, frozen.  Do not "simplify" it towards
# the library — its whole value is that it does not share code with it.
# --------------------------------------------------------------------- #
class OracleStackedLogistic:
    """``MultinomialLogisticRegression``'s stacked kernel before the stream."""

    def __init__(self, dim, num_classes, l2=0.0):
        self.dim = dim
        self.num_classes = num_classes
        self.l2 = float(l2)
        self.n_params = dim * num_classes + num_classes
        self._stacked_ws = None

    def _stacked_workspace(self, K, B):
        ws = self._stacked_ws
        if ws is None or ws["KB"] != (K, B):
            C = self.num_classes
            ws = {
                "KB": (K, B),
                "scores": np.empty((K, B, C)),
                "expbuf": np.empty((K, B, C)),
                "red": np.empty((K, B, 1)),
                "label_base": (
                    (np.arange(K)[:, None] * B + np.arange(B)[None, :]) * C
                ),
                "grad_w": np.empty((K, self.dim, C)),
                "grad_b": np.empty((K, C)),
                "out": np.empty((K, self.n_params)),
                "W_views": None,
            }
            self._stacked_ws = ws
        return ws

    def stacked_gradient(self, W, X, y, mask, counts):
        K, B = X.shape[0], X.shape[1]
        split = self.dim * self.num_classes
        ws = self._stacked_workspace(K, B)
        views = ws["W_views"]
        if views is None or views[0] is not W:
            Wk = W[:, :split].reshape(K, self.dim, self.num_classes)
            bk = W[:, split:]
            views = (W, Wk, bk, bk[:, None, :])
            ws["W_views"] = views
        _, Wk, bk, bk_b = views

        scores = ws["scores"]
        np.matmul(X, Wk, out=scores)
        scores += bk_b
        red = ws["red"]
        scores.max(axis=2, keepdims=True, out=red)
        np.subtract(scores, red, out=scores)  # shifted
        np.exp(scores, out=ws["expbuf"])
        ws["expbuf"].sum(axis=2, keepdims=True, out=red)
        np.log(red, out=red)
        np.subtract(scores, red, out=scores)  # log_probs
        delta = np.exp(scores, out=scores)

        delta.reshape(-1)[(ws["label_base"] + y).ravel()] -= 1.0
        delta /= counts if counts.ndim == 3 else counts[:, None, None]
        if mask is not None:
            delta *= mask[:, :, None]
        grad_w = np.matmul(X.transpose(0, 2, 1), delta, out=ws["grad_w"])
        grad_b = delta.sum(axis=1, out=ws["grad_b"])
        if self.l2 > 0:
            grad_w += self.l2 * Wk
            grad_b += self.l2 * bk
        out = ws["out"]
        out[:, :split] = grad_w.reshape(K, split)
        out[:, split:] = grad_b
        return out


def _oracle_plan(n, batch_size, epochs, rng):
    """The list of index arrays ``stacked_plan`` used to return."""
    per_epoch = 1 if batch_size >= n else -(-n // batch_size)
    total = max(1, int(round(epochs * per_epoch)))
    batches = []
    while len(batches) < total:
        order = rng.permutation(n)
        if batch_size >= n:
            batches.append(order)
        else:
            batches.extend(
                order[s : s + batch_size] for s in range(0, n, batch_size)
            )
    return batches[:total]


_GATHER_CHUNK_BYTES = 8 << 20


def oracle_solve_cohort(tasks, clients, kernel, solver):
    """``solve_cohort`` before the stream (telemetry and γ left out)."""
    K = len(tasks)
    d = kernel.n_params

    plans = [
        _oracle_plan(
            clients[task.client_id].data.num_train,
            solver.batch_size,
            task_effective_epochs(task),
            task_rng(task),
        )
        for task in tasks
    ]

    plan = plan_cohort([len(p) for p in plans])
    L = plan.n_lanes
    t_max = plan.t_max
    b_max = max(len(batch) for p in plans for batch in p)

    xs, ys, offsets = [], [], []
    base = 0
    for task in tasks:
        data = clients[task.client_id].data
        xs.append(data.train_x)
        ys.append(data.train_y)
        offsets.append(base)
        base += data.num_train
    feat_shape = xs[0].shape[1:]
    x_dtype = xs[0].dtype
    if not np.issubdtype(x_dtype, np.integer):
        x_dtype = np.float64
    x_cat = np.zeros((base + 1,) + feat_shape, dtype=x_dtype)
    x_cat[:base] = np.concatenate(xs)
    y_cat = np.zeros(base + 1, dtype=np.int64)
    y_cat[:base] = np.concatenate(ys)
    pad = base

    idx = np.full((t_max, L, b_max), pad, dtype=np.int64)
    mask = np.zeros((t_max, L, b_max), dtype=np.float64)
    counts = np.ones((t_max, L), dtype=np.float64)
    for p in plan.placements:
        batches = plans[p.task]
        T = len(batches)
        flat = np.concatenate(batches)
        flat += offsets[p.task]
        lens = np.fromiter((len(b) for b in batches), dtype=np.int64, count=T)
        step_of = np.repeat(np.arange(T), lens) + p.start
        col_of = np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)
        idx[step_of, p.lane, col_of] = flat
        mask[step_of, p.lane, col_of] = 1.0
        counts[p.start : p.stop, p.lane] = lens
    counts3 = counts[:, :, None, None]

    W = np.empty((L, d), dtype=np.float64)
    W_ref = np.empty((L, d), dtype=np.float64)
    mus = np.zeros(L, dtype=np.float64)
    corrections = [None] * L
    results = [None] * K

    state = solver.stacked_state((L, d))
    prox = np.empty((L, d), dtype=np.float64)
    feat_size = int(np.prod(feat_shape)) if feat_shape else 1

    stacked_gradient = kernel.stacked_gradient
    stacked_step = solver.stacked_step
    for seg in plan.segments:
        for p in seg.starts:
            lane = p.lane
            task = tasks[p.task]
            W[lane] = np.asarray(task.w_global, dtype=np.float64)
            W_ref[lane] = W[lane]
            mus[lane] = task.mu
            corrections[lane] = task.correction
            solver.stacked_reset(state, lane)
        a = seg.width
        Wa = W[:a]
        Wr = W_ref[:a]
        mua = mus[:a, None]
        diff = prox[:a]
        any_mu = bool(np.any(mus[:a] > 0))
        any_corr = any(c is not None for c in corrections[:a])
        base_steps = seg.base_steps
        chunk = max(1, _GATHER_CHUNK_BYTES // max(1, a * b_max * feat_size * 8))
        for lo in range(seg.lo, seg.hi, chunk):
            hi = min(lo + chunk, seg.hi)
            Xc = x_cat[idx[lo:hi, :a]]
            yc = y_cat[idx[lo:hi, :a]]
            mc = mask[lo:hi, :a]
            cc = counts3[lo:hi, :a]
            dense = mc.all(axis=(1, 2))
            for s in range(hi - lo):
                G = stacked_gradient(
                    Wa, Xc[s], yc[s], None if dense[s] else mc[s], cc[s]
                )
                if any_mu:
                    np.subtract(Wa, Wr, out=diff)
                    diff *= mua
                    G += diff
                if any_corr:
                    for row in range(a):
                        if corrections[row] is not None:
                            G[row] += corrections[row]
                off = lo - seg.lo + s
                if seg.uniform:
                    stacked_step(Wa, G, state, int(base_steps[0]) + off)
                else:
                    stacked_step(Wa, G, state, base_steps + off)
        for p in seg.ends:
            results[p.task] = W[p.lane].copy()

    return results, [len(p) for p in plans]


# --------------------------------------------------------------------- #
# Kernel parity over the chunk shapes the cohort loop produces.
# --------------------------------------------------------------------- #
def _chunk(S, K, B, dtype, seed):
    """``S`` gathered steps; lanes past the first see short final batches."""
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(S, K, B, DIM)).astype(dtype)
    y = gen.integers(CLASSES, size=(S, K, B))
    mask = np.ones((S, K, B))
    counts = np.full((S, K), float(B))
    if B > 1:
        # Every third step ends an epoch in the odd lanes only (in the
        # only lane of a cohort of one): padding slots point at the zero
        # row with label 0, as the gather pads.
        for s in range(0, S, 3):
            for k in range(1, K, 2) if K > 1 else [0]:
                real = 1 + (s + k) % (B - 1)
                X[s, k, real:] = 0
                y[s, k, real:] = 0
                mask[s, k, real:] = 0.0
                counts[s, k] = real
    return X, y, mask, counts[:, :, None, None]


def _descend(W, G):
    """A step between gradients, so the stream must read ``W`` in place."""
    W -= 0.05 * G


class TestStreamMatchesFrozenKernel:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("S", [1, 2, 33])
    @pytest.mark.parametrize("B", [1, 7, 10])
    @pytest.mark.parametrize("K", [1, 2, 3, 10])
    def test_every_step_of_a_chunk(self, K, B, S, l2, dtype):
        model = MultinomialLogisticRegression(DIM, CLASSES, l2=l2)
        oracle = OracleStackedLogistic(DIM, CLASSES, l2=l2)
        X, y, mask, counts = _chunk(S, K, B, dtype, seed=K * 100 + B * 10 + S)
        W0 = np.random.default_rng(S).normal(size=(K, model.n_params)) * 0.5
        W_new, W_old = W0.copy(), W0.copy()
        dense = mask.all(axis=(1, 2))
        assert B == 1 or not dense.all()

        stream = model.stacked_minibatch_gradients(W_new, X, y, mask, counts)
        for s, got in enumerate(stream):
            want = oracle.stacked_gradient(
                W_old, X[s], y[s], None if dense[s] else mask[s], counts[s]
            )
            assert np.array_equal(got, want), (K, B, S, l2, s)
            _descend(W_new, got)
            _descend(W_old, want)
        assert s == S - 1
        assert np.array_equal(W_new, W_old)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("counts_ndim", [1, 3])
    @pytest.mark.parametrize("with_mask", [False, True])
    @pytest.mark.parametrize("K,B", [(1, 1), (2, 7), (3, 10), (10, 10)])
    def test_the_one_step_entry(self, K, B, with_mask, counts_ndim, dtype):
        """``stacked_gradient`` is a chunk of one; ``counts`` in both shapes."""
        model = MultinomialLogisticRegression(DIM, CLASSES, l2=0.3)
        oracle = OracleStackedLogistic(DIM, CLASSES, l2=0.3)
        X, y, mask, counts = _chunk(1, K, B, dtype, seed=K + B)
        W = np.random.default_rng(1).normal(size=(K, model.n_params))
        counts = counts[0] if counts_ndim == 3 else counts[0, :, 0, 0]
        m = mask[0] if with_mask else None
        got = model.stacked_gradient(W, X[0], y[0], m, counts)
        want = oracle.stacked_gradient(W, X[0], y[0], m, counts)
        assert np.array_equal(got, want)
        assert got.shape == (K, model.n_params)

    def test_the_stream_yields_one_buffer_valid_until_the_next_step(self):
        model = MultinomialLogisticRegression(DIM, CLASSES)
        X, y, mask, counts = _chunk(3, 2, 7, np.float64, seed=0)
        W = np.random.default_rng(2).normal(size=(2, model.n_params))
        stream = model.stacked_minibatch_gradients(W, X, y, mask, counts)
        first = next(stream)
        kept = first.copy()
        second = next(stream)
        assert second is first  # the caller must copy what it keeps
        assert not np.array_equal(second, kept)


# --------------------------------------------------------------------- #
# Whole solves against the frozen step loop.
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def federation():
    return make_synthetic(1.0, 1.0, num_devices=12, seed=3, size_cap=90)


def _bound(federation, model, solver):
    executor = CohortExecutor()
    executor.bind(federation, model, solver)
    return executor


def _tasks(budgets, *, mus, seed=0, corrections=None, faults=None, d=610):
    gen = np.random.default_rng(seed)
    w_global = gen.normal(size=d) * 0.1
    return [
        LocalTask(
            client_id=a.client_id,
            w_global=w_global,
            mu=mus[i % len(mus)],
            epochs=a.epochs,
            rng_entropy=(seed, 4, a.client_id, 0),
            correction=None if corrections is None else corrections[i],
            fault=None if faults is None else faults.get(i),
        )
        for i, a in enumerate(budgets)
    ]


def _assert_solves_match(federation, tasks, solver=None, l2=0.0):
    solver = solver or SGDSolver(0.01, batch_size=10)
    model = MultinomialLogisticRegression(60, 10, l2=l2)
    executor = _bound(federation, model, solver)
    got = solve_cohort(tasks, executor.clients, model, solver)
    want, steps = oracle_solve_cohort(
        tasks, executor.clients, OracleStackedLogistic(60, 10, l2=l2), solver
    )
    assert len(got) == len(want) == len(tasks)
    for update, w, n_steps, task in zip(got, want, steps, tasks):
        assert isinstance(update, ClientUpdate)
        assert update.client_id == task.client_id
        assert np.array_equal(update.w, w), task.client_id
        assert update.gradient_evaluations == n_steps
    return got


class TestSolveMatchesFrozenStepLoop:
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize(
        "systems",
        [
            PowerLawStragglers(1.0, seed=2),
            PowerLawStragglers(3.0, seed=5),
            FractionStragglers(0.5, seed=2),
            FractionStragglers(0.9, seed=4),
        ],
        ids=["power1", "power3", "frac50", "frac90"],
    )
    def test_straggler_budgets(self, federation, systems, mu):
        budgets = systems.assign(4, list(range(0, 12, 2)) + [1, 5], 5.0)
        _assert_solves_match(federation, _tasks(budgets, mus=[mu]))

    def test_l2_and_a_stateful_solver_on_packed_lanes(self, federation):
        budgets = PowerLawStragglers(2.0, seed=7).assign(1, list(range(8)), 4.0)
        _assert_solves_match(
            federation,
            _tasks(budgets, mus=[0.1]),
            solver=AdamSolver(0.005, batch_size=10),
            l2=0.05,
        )

    def test_mixed_mu_takes_the_column_path(self, federation):
        """µ = 0 beside µ > 0 in one segment: no row may borrow another's µ."""
        budgets = PowerLawStragglers(1.0, seed=3).assign(2, list(range(8)), 4.0)
        tasks = _tasks(budgets, mus=[0.0, 1.0, 0.25])
        assert {t.mu for t in tasks} == {0.0, 1.0, 0.25}
        _assert_solves_match(federation, tasks)
        # Equal budgets put every task in its own lane of one segment.
        even = FractionStragglers(0.0).assign(0, list(range(6)), 2.0)
        _assert_solves_match(federation, _tasks(even, mus=[0.0, 1.0, 0.25]))

    def test_feddane_correction_on_some_tasks_only(self, federation):
        budgets = PowerLawStragglers(1.0, seed=9).assign(3, list(range(7)), 4.0)
        gen = np.random.default_rng(8)
        corrections = [
            gen.normal(size=610) * 0.01 if i % 2 == 0 else None
            for i in range(len(budgets))
        ]
        _assert_solves_match(
            federation, _tasks(budgets, mus=[1.0], corrections=corrections)
        )

    def test_crash_truncated_task(self, federation):
        budgets = FractionStragglers(0.5, seed=1).assign(6, list(range(6)), 4.0)
        faults = {
            1: FaultDecision("crash", fraction=0.37),
            4: FaultDecision("crash", fraction=0.9),
        }
        tasks = _tasks(budgets, mus=[1.0], faults=faults)
        updates = _assert_solves_match(federation, tasks)
        healthy = _assert_solves_match(federation, _tasks(budgets, mus=[1.0]))
        assert updates[1].gradient_evaluations < healthy[1].gradient_evaluations
        assert updates[1].task is tasks[1] and tasks[1].fault is faults[1]

    def test_small_gather_chunks_do_not_move_the_values(self, federation, monkeypatch):
        """A segment split into many chunks restarts the stream mid-chain."""
        from repro.runtime import cohort

        budgets = PowerLawStragglers(1.0, seed=2).assign(4, list(range(8)), 5.0)
        tasks = _tasks(budgets, mus=[1.0])
        whole = _assert_solves_match(federation, tasks)
        # Three steps of four 10-row lanes per gather.
        monkeypatch.setattr(cohort, "_GATHER_CHUNK_BYTES", 3 * 4 * 10 * 60 * 8)
        chunked = _assert_solves_match(federation, tasks)
        for a, b in zip(whole, chunked):
            assert np.array_equal(a.w, b.w)


# --------------------------------------------------------------------- #
# What the rewrite assumes about NumPy, by name.
# --------------------------------------------------------------------- #
class TestNumpyAssumptions:
    def test_subtracting_positive_zero_is_the_identity_bitwise(self):
        """``delta -= onehot`` leaves every off-label entry's bits alone."""
        x = np.array(
            [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, np.inf, -np.inf, np.nan]
        )
        x = np.concatenate([x, np.random.default_rng(0).normal(size=1000)])
        assert np.array_equal((x - 0.0).view(np.uint64), x.view(np.uint64))
        y = x.copy()
        y -= np.zeros_like(x)
        assert np.array_equal(y.view(np.uint64), x.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "K,B,dim,C", [(1, 10, 60, 10), (3, 10, 60, 10), (10, 7, 6, 4), (4, 1, 784, 10)]
    )
    def test_matmul_into_the_strided_stack_view_equals_matmul_then_copy(
        self, K, B, dim, C, dtype
    ):
        """Each client's ``(dim, C)`` block of the ``(K, d)`` buffer is
        contiguous, so ``matmul(out=view)`` must take the same (BLAS) path
        as ``matmul`` into a contiguous ``(K, dim, C)`` array."""
        gen = np.random.default_rng(K + B)
        X = gen.normal(size=(K, B, dim)).astype(dtype)
        delta = gen.normal(size=(K, B, C))
        split = dim * C
        stack = np.full((K, split + C), np.nan)
        view = stack[:, :split].reshape(K, dim, C)
        assert np.shares_memory(view, stack)
        assert view.strides[1:] == (C * 8, 8)  # contiguous blocks, a row apart
        np.matmul(X.transpose(0, 2, 1), delta, out=view)
        scratch = np.matmul(X.transpose(0, 2, 1), delta, out=np.empty((K, dim, C)))
        assert np.array_equal(stack[:, :split], scratch.reshape(K, split))
        assert np.isnan(stack[:, split:]).all()  # the bias tail is untouched

        tail = stack[:, split:]
        np.add.reduce(delta, axis=1, out=tail)
        assert np.array_equal(tail, delta.sum(axis=1, out=np.empty((K, C))))


# --------------------------------------------------------------------- #
# The shared model holds no solve-time state.
# --------------------------------------------------------------------- #
class TestModelHoldsNoSolveState:
    def test_a_cohort_round_leaves_the_model_as_it_found_it(self, federation):
        from repro.core import FederatedTrainer

        model = MultinomialLogisticRegression(60, 10)
        trainer = FederatedTrainer(
            dataset=federation,
            model=model,
            solver=SGDSolver(0.01, batch_size=10),
            mu=1.0,
            clients_per_round=5,
            epochs=2.0,
            systems=PowerLawStragglers(1.0, seed=3),
            seed=1,
            engine="cohort",
        )
        attributes = set(vars(model))
        try:
            trainer.run(2)
        finally:
            trainer.close()
        assert set(vars(model)) == attributes

        fresh = MultinomialLogisticRegression(60, 10)
        fresh.set_params(model.get_params())
        assert len(pickle.dumps(model)) == len(pickle.dumps(fresh))
        assert set(vars(copy.deepcopy(model))) == attributes

    def test_a_direct_kernel_call_leaves_nothing_behind_either(self):
        model = MultinomialLogisticRegression(DIM, CLASSES)
        before = pickle.dumps(model)
        X, y, mask, counts = _chunk(1, 3, 7, np.float64, seed=1)
        W = np.zeros((3, model.n_params))
        model.stacked_gradient(W, X[0], y[0], mask[0], counts[0])
        assert pickle.dumps(model) == before
        for gone in ("_stacked_ws", "_stacked_workspace"):
            assert not hasattr(model, gone)


# --------------------------------------------------------------------- #
# The default stream is the per-step loop it replaced.
# --------------------------------------------------------------------- #
class _Recording:
    """Mixin: note whether each kernel call arrived with ``mask=None``."""

    def stacked_gradient(self, W, X, y, mask, counts):
        self.masks_seen.append(mask is None)
        return super().stacked_gradient(W, X, y, mask, counts)


class _RecordingMLP(_Recording, MLPClassifier):
    pass


class _RecordingLSTM(_Recording, CharLSTM):
    pass


def _mlp_chunk():
    model = _RecordingMLP(DIM, CLASSES, hidden=5, seed=2)
    model.masks_seen = []
    return (model,) + _chunk(5, 3, 7, np.float64, seed=4)


def _lstm_chunk():
    model = _RecordingLSTM(
        vocab_size=11, embed_dim=4, hidden=6, num_layers=2, seed=1, backend="fused"
    )
    model.masks_seen = []
    S, K, B, T = 4, 2, 3, 5
    gen = np.random.default_rng(6)
    X = gen.integers(11, size=(S, K, B, T))
    y = gen.integers(11, size=(S, K, B))
    mask = np.ones((S, K, B))
    counts = np.full((S, K, 1, 1), float(B))
    X[1, 1, 2:], y[1, 1, 2:], mask[1, 1, 2:], counts[1, 1] = 0, 0, 0.0, 2.0
    return model, X, y, mask, counts


class TestDefaultStreamIsThePerStepLoop:
    def test_only_the_logistic_model_overrides_it(self):
        default = FederatedModel.stacked_minibatch_gradients
        assert MLPClassifier.stacked_minibatch_gradients is default
        assert CharLSTM.stacked_minibatch_gradients is default
        assert MultinomialLogisticRegression.stacked_minibatch_gradients is not default

    @pytest.mark.parametrize("build", [_mlp_chunk, _lstm_chunk], ids=["mlp", "charlstm"])
    def test_stream_equals_stacked_gradient_step_by_step(self, build):
        model, X, y, mask, counts = build()
        gen = np.random.default_rng(0)
        W0 = gen.normal(size=(X.shape[1], model.n_params)) * 0.3
        dense = mask.all(axis=(1, 2))
        assert dense.any() and not dense.all()

        W = W0.copy()
        want = []
        for s in range(len(X)):
            G = model.stacked_gradient(
                W, X[s], y[s], None if dense[s] else mask[s], counts[s]
            ).copy()
            want.append(G)
            _descend(W, G)

        model.masks_seen = []
        W = W0.copy()
        steps = 0
        for G, expected in zip(
            model.stacked_minibatch_gradients(W, X, y, mask, counts), want
        ):
            assert np.array_equal(G, expected)
            _descend(W, G)
            steps += 1
        assert steps == len(X)
        # Dense steps still reach the kernel without a mask.
        assert model.masks_seen == dense.tolist()

    def test_the_fused_lstm_stream_reuses_its_buffer(self):
        """Why the protocol says "valid only until the stream is advanced"."""
        model, X, y, mask, counts = _lstm_chunk()
        W = np.random.default_rng(0).normal(size=(2, model.n_params)) * 0.3
        stream = model.stacked_minibatch_gradients(W, X, y, mask, counts)
        first = next(stream)
        kept = first.copy()
        assert next(stream) is first
        assert not np.array_equal(first, kept)
