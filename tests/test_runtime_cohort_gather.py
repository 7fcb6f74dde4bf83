"""The cohort solve gathers each chunk straight from its devices' arrays.

``solve_cohort`` used to lay the whole cohort out once per round — every
selected device copied into one float64 ``[x, 1]`` stack by the model's
``stacked_rows`` hook, plus one pad row — and to build a
``(t_max, L, b_max)`` index / mask / count plan over the round before its
first step.  It now copies each chunk of steps from the active lanes' own
device arrays, building the chunk's index, mask and batch sizes from the
chains' flat plans.  Pinned here:

* cohort updates equal the serial solve's with ``np.array_equal`` on
  every store kind (a builder's packed store, a hand-built list packed
  once, memory-mapped shards, on-demand regeneration), with a device that spans several
  chunks and ends its epochs on short batches;
* the chunks the model's stream receives equal, bit for bit, the chunks
  the frozen whole-round layout and plan produced, for the logistic
  model, the MLP and both LSTMs;
* the solve's transient memory is one chunk and the weight stacks: a
  20,000-row device adds no more than one chunk over a 200-row one.
  That bound rests on ``take(out=)`` into a contiguous buffer and
  ``copyto`` staging no temporary, which NumPy releases may differ on,
  so this file is marked ``oracle`` and runs on the oldest supported
  NumPy too.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.client import ClientPool
from repro.datasets import (
    ClientData,
    FederatedDataset,
    MmapShardStore,
    OnDemandSyntheticStore,
    make_sent140_like,
    make_shakespeare_like,
    make_synthetic,
)
from repro.models import CharLSTM, MLPClassifier, MultinomialLogisticRegression, SentimentLSTM
from repro.optim import SGDSolver
from repro.runtime import LocalTask, cohort
from repro.runtime.cohort import solve_cohort
from repro.runtime.executor import solve_with_timings, task_effective_epochs, task_rng
from repro.runtime.packing import plan_cohort

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

DIM, CLASSES, BATCH = 12, 5, 10
#: Epoch budgets of the cohort: a long chain, stragglers that pack
#: behind it in one lane, and a fractional budget that ends mid-epoch.
EPOCHS = [3.0, 0.5, 0.3, 1.0, 0.7, 2.0]


def _device(cid, n, gen, dtype=np.float32):
    x = gen.normal(size=(n, DIM)).astype(dtype)
    y = gen.integers(CLASSES, size=n)
    return ClientData(client_id=cid, train_x=x, train_y=y, test_x=x[:2], test_y=y[:2])


def _hand_built():
    """A big device of 537 rows (54 steps an epoch, the last 7 rows high)
    beside small ones of 10–43 rows: every device ends its epochs on a
    short batch but the 10-row one, and none is below one batch."""
    gen = np.random.default_rng(4)
    sizes = [537, 23, 10, 43, 17, 31]
    return [_device(cid, n, gen) for cid, n in enumerate(sizes)]


def _hand_built_dataset(tmp_path):
    return FederatedDataset("hand", clients=_hand_built(), num_classes=CLASSES, input_dim=DIM)


def _mmap_dataset(tmp_path):
    store = MmapShardStore.pack(_hand_built(), str(tmp_path / "shards"), clients_per_shard=4)
    return FederatedDataset("hand-mmap", num_classes=CLASSES, input_dim=DIM, store=store)


def _packed_dataset(tmp_path):
    return make_synthetic(1.0, 1.0, num_devices=6, seed=3, size_cap=600)


def _ondemand_dataset(tmp_path):
    store = OnDemandSyntheticStore(1.0, 1.0, num_devices=6, seed=3, size_cap=600)
    return FederatedDataset("od", num_classes=10, input_dim=60, store=store)


STORES = {
    "packed": _packed_dataset,
    "hand-built": _hand_built_dataset,
    "mmap": _mmap_dataset,
    "on-demand": _ondemand_dataset,
}


def _tasks(dataset, model, epochs=EPOCHS, mu=1.0, seed=0):
    gen = np.random.default_rng(seed)
    w0 = gen.normal(scale=0.1, size=model.n_params)
    return [
        LocalTask(client_id=cid, w_global=w0, mu=mu, epochs=e, rng_entropy=(seed, 0, cid, 0))
        for cid, e in zip(range(len(dataset)), epochs)
    ]


@pytest.mark.parametrize("chunk_steps", [1, 4, None], ids=["1-step", "4-step", "default"])
@pytest.mark.parametrize("store", sorted(STORES))
def test_cohort_equals_serial_on_every_store(store, chunk_steps, tmp_path, monkeypatch):
    dataset = STORES[store](tmp_path)
    assert min(dataset.train_sizes) >= BATCH  # no device runs below the batch height
    model = MultinomialLogisticRegression(dim=dataset.input_dim, num_classes=dataset.num_classes)
    solver = SGDSolver(0.05, batch_size=BATCH)
    clients = ClientPool(dataset, model, solver)
    tasks = _tasks(dataset, model)
    if chunk_steps is not None:
        # ``chunk_steps`` steps of the widest segment per chunk.
        widest = plan_cohort([_budget(clients, solver, t) for t in tasks]).n_lanes
        row = (dataset.input_dim + 1) * 8
        monkeypatch.setattr(cohort, "_GATHER_CHUNK_BYTES", chunk_steps * widest * BATCH * row)
    got = solve_cohort(tasks, clients, model, solver)
    for task, update in zip(tasks, got):
        want = solve_with_timings(clients, task)
        assert update.client_id == want.client_id
        assert update.gradient_evaluations == want.gradient_evaluations
        assert np.array_equal(update.w, want.w), f"device {task.client_id}"


def _budget(clients, solver, task):
    n = clients.train_sizes[task.client_id]
    return len(solver.stacked_plan(int(n), task_effective_epochs(task), task_rng(task))[1])


# --------------------------------------------------------------------- #
# The frozen whole-round layout: the model's ``stacked_rows`` hook and the
# ``(t_max, L, b_max)`` gather plan, as ``solve_cohort`` built them before
# it gathered from the devices' own arrays.
# --------------------------------------------------------------------- #
def frozen_stacked_rows(model, shards):
    n = sum(len(x) for x in shards)
    if isinstance(model, MultinomialLogisticRegression):
        rows = np.empty((n + 1, model.dim + 1))
        rows[:, model.dim] = 1.0
        rows[n, : model.dim] = 0.0
        np.concatenate(shards, out=rows[:n, : model.dim], casting="unsafe")
        return rows
    dtype = shards[0].dtype
    if not np.issubdtype(dtype, np.integer):
        dtype = np.float64
    rows = np.zeros((n + 1,) + shards[0].shape[1:], dtype=dtype)
    np.concatenate(shards, out=rows[:n])
    return rows


def frozen_chunks(tasks, clients, model, solver, chunk_bytes):
    """The ``(X, y, mask, counts)`` chunks the frozen layout fed the stream."""
    shards = [clients[task.client_id] for task in tasks]
    plans = [
        solver.stacked_plan(data.num_train, task_effective_epochs(task), task_rng(task))
        for task, data in zip(tasks, shards)
    ]
    plan = plan_cohort([len(lens) for _, lens in plans])
    L, t_max = plan.n_lanes, plan.t_max
    b_max = max(int(lens.max()) for _, lens in plans)
    offsets = np.cumsum([0] + [data.num_train for data in shards])
    base = int(offsets[-1])
    x_cat = frozen_stacked_rows(model, [data.train_x for data in shards])
    y_cat = np.zeros(base + 1, dtype=np.int64)
    np.concatenate([data.train_y for data in shards], out=y_cat[:base])

    idx = np.full((t_max, L, b_max), base, dtype=np.int64)
    mask = np.zeros((t_max, L, b_max), dtype=np.float64)
    counts = np.ones((t_max, L), dtype=np.float64)
    for p in plan.placements:
        flat, lens = plans[p.task]
        flat = flat + offsets[p.task]
        step_of = np.repeat(np.arange(p.start, p.stop), lens)
        col_of = np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)
        idx[step_of, p.lane, col_of] = flat
        mask[step_of, p.lane, col_of] = 1.0
        counts[p.start : p.stop, p.lane] = lens
    counts3 = counts[:, :, None, None]

    row_bytes = x_cat[0].nbytes
    out = []
    for seg in plan.segments:
        a = seg.width
        chunk = max(1, chunk_bytes // (a * b_max * row_bytes))
        for lo in range(seg.lo, seg.hi, chunk):
            hi = min(lo + chunk, seg.hi)
            rows = idx[lo:hi, :a]
            out.append((x_cat[rows], y_cat[rows], mask[lo:hi, :a], counts3[lo:hi, :a]))
    return out


def _recorded_chunks(model, tasks, clients, solver):
    """Run the library's solve and copy every chunk its stream received."""
    chunks = []
    stream = model.stacked_minibatch_gradients

    def spy(W, X, y, mask, counts, scale=1.0):
        chunks.append((X.copy(), y.copy(), mask.copy(), counts.copy()))
        return stream(W, X, y, mask, counts, scale)

    model.stacked_minibatch_gradients = spy
    try:
        solve_cohort(tasks, clients, model, solver)
    finally:
        del model.stacked_minibatch_gradients
    return chunks


def _shakespeare():
    return make_shakespeare_like(num_devices=6, seq_len=10, samples_per_device_mean=30, seed=0)


def _sent140():
    return make_sent140_like(num_devices=6, seq_len=8, samples_per_device_mean=30, seed=1)


MODELS = {
    "logistic": (
        lambda: _hand_built_dataset(None),
        lambda ds: MultinomialLogisticRegression(dim=DIM, num_classes=CLASSES),
    ),
    "mlp": (
        lambda: _hand_built_dataset(None),
        lambda ds: MLPClassifier(dim=DIM, num_classes=CLASSES, hidden=8),
    ),
    "charlstm": (
        _shakespeare,
        lambda ds: CharLSTM(vocab_size=80, embed_dim=4, hidden=8, num_layers=2, seed=0),
    ),
    "sentlstm": (
        _sent140,
        lambda ds: SentimentLSTM(vocab_size=400, embed_dim=6, hidden=8, num_layers=2, seed=0),
    ),
}


@pytest.mark.parametrize("chunk_bytes", [3 << 10, 1 << 20], ids=["3KiB", "1MiB"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_chunk_equals_the_frozen_whole_round_layout(name, chunk_bytes, monkeypatch):
    build_dataset, build_model = MODELS[name]
    dataset = build_dataset()
    model = build_model(dataset)
    solver = SGDSolver(0.05, batch_size=BATCH)
    clients = ClientPool(dataset, model, solver)
    tasks = _tasks(dataset, model, mu=0.5)
    monkeypatch.setattr(cohort, "_GATHER_CHUNK_BYTES", chunk_bytes)
    got = _recorded_chunks(model, tasks, clients, solver)
    want = frozen_chunks(tasks, clients, model, solver, chunk_bytes)
    assert len(got) == len(want) > 1
    assert any(not m.all() for _, _, m, _ in want)  # short batches were padded
    for (X, y, m, c), (X0, y0, m0, c0) in zip(got, want):
        assert X.dtype == X0.dtype and y.dtype == y0.dtype
        assert np.array_equal(X, X0)
        assert np.array_equal(y, y0)
        assert np.array_equal(m, m0)
        assert np.array_equal(c, c0)


# --------------------------------------------------------------------- #
# Memory: one chunk, whatever the size of the largest device.
# --------------------------------------------------------------------- #
def _traced_solve(rows):
    """The traced peak of one solve of a device of ``rows`` rows at
    d = 784 beside three 50-row devices, above the level it started at."""
    gen = np.random.default_rng(rows)
    dim = 784
    devices = []
    for cid, n in enumerate([rows, 50, 50, 50]):
        x = gen.normal(size=(n, dim)).astype(np.float32)
        y = gen.integers(10, size=n)
        devices.append(ClientData(client_id=cid, train_x=x, train_y=y, test_x=x[:1], test_y=y[:1]))
    dataset = FederatedDataset("big", clients=devices)
    model = MultinomialLogisticRegression(dim=dim, num_classes=10)
    solver = SGDSolver(0.01, batch_size=BATCH)
    clients = ClientPool(dataset, model, solver)
    w0 = np.zeros(model.n_params)
    tasks = [
        LocalTask(client_id=cid, w_global=w0, mu=1.0, epochs=1.0, rng_entropy=(0, 0, cid, 0))
        for cid in range(4)
    ]
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solve_cohort(tasks, clients, model, solver)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_a_20000_row_device_adds_no_more_than_one_chunk():
    small, large = _traced_solve(200), _traced_solve(20_000)
    assert large - small <= cohort._GATHER_CHUNK_BYTES, (small, large)
