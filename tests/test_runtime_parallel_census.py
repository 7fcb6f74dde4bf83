"""The parallel engine's census: computed on the lanes, equal to serial's.

``ParallelExecutor`` computes a census's per-unit values (one per block of
the stacked split, or one per client) across its lanes — the server's own
share and one message per worker — and reduces them on the server in unit
order (DESIGN.md §8, "The census runs where the data
already is").  Every value it returns must ``==`` the serial engine's —
same bounds, same bytes, same per-block code, same additions in the same
order — and nothing but ``w`` and the bounds may cross the boundary.
"""

from __future__ import annotations

import os
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.datasets import (
    FederatedDataset,
    make_mnist_like,
    make_sent140_like,
    make_shakespeare_like,
    make_synthetic,
    make_synthetic_ondemand,
)
from repro.models import (
    CharLSTM,
    MLPClassifier,
    MultinomialLogisticRegression,
    SentimentLSTM,
)
from repro.optim import SGDSolver
from repro.runtime import ParallelExecutor, SerialExecutor, parallel
from repro.telemetry import history_digest
from tests.conftest import InProcessWorkers

pytestmark = [
    pytest.mark.oracle,  # runs on the oldest supported NumPy too (ci.yml)
    pytest.mark.filterwarnings("ignore:ParallelExecutor:RuntimeWarning"),
]

SOLVER = SGDSolver(0.1, batch_size=10)


def _logistic(dataset):
    return MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes
    )


def _synthetic():
    """2522 train rows (two 2048-row blocks), 619 test rows (one)."""
    return make_synthetic(1.0, 1.0, num_devices=40, seed=7, size_cap=100)


def _images():
    """float32 rows; two of the devices hold no test rows at all."""
    dataset = make_mnist_like(
        num_devices=14, total_samples=300, dim=16, min_samples=2, seed=3
    )
    assert dataset.store.x.dtype == np.float32
    assert (dataset.test_sizes == 0).any() and dataset.test_sizes.any()
    return dataset


def _with_logistic(dataset):
    return dataset, _logistic(dataset)


CASES = {
    "synthetic-logistic": lambda: _with_logistic(_synthetic()),
    "images-float32-logistic": lambda: _with_logistic(_images()),
    "synthetic-mlp": lambda: (
        _synthetic(), MLPClassifier(dim=60, num_classes=10, hidden=8),
    ),
    "shakespeare-charlstm": lambda: (
        make_shakespeare_like(num_devices=5, vocab_size=20, seq_len=8, seed=1),
        CharLSTM(vocab_size=20, embed_dim=4, hidden=8, num_layers=1),
    ),
    "sent140-sentlstm": lambda: (
        make_sent140_like(num_devices=14, vocab_size=50, seq_len=6, seed=1),
        SentimentLSTM(vocab_size=50, embed_dim=4, hidden=8, num_layers=1),
    ),
}


def _case(name):
    """A fresh ``(dataset, model)`` of one parity case."""
    return CASES[name]()


def _weights(model, seed):
    return model.get_params() + 0.1 * np.random.default_rng(seed).normal(
        size=model.n_params
    )


def _serial(dataset, model, eval_mode="auto"):
    executor = SerialExecutor()
    executor.bind(dataset, model, SOLVER, eval_mode=eval_mode)
    return executor


@pytest.fixture
def in_process(monkeypatch):
    """A bound ``ParallelExecutor`` whose workers are the in-process double.

    The worker side is built the way a spawned worker builds it: from a
    pickled copy of the federation (its own bytes) and the replica, by
    ``_init_worker`` itself.  The minimum-work constant is dropped to 0
    so the small federations of this file reach the pool, and the process
    may use more cores than any test asks workers for, so a census cuts
    one share per worker wherever it runs (shares are capped at the cores,
    ``test_shares_are_capped_at_the_cores``).
    """
    monkeypatch.setattr(parallel, "_WORKER", {})
    monkeypatch.setattr(parallel, "MIN_ELEMENTS_SAVED", 0)
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 64)

    def make(dataset, model, n_workers, eval_mode="auto"):
        executor = ParallelExecutor(n_workers=n_workers)
        executor.bind(dataset, model, SOLVER, eval_mode=eval_mode)
        InProcessWorkers.install(executor)
        parallel._init_worker(
            *pickle.loads(pickle.dumps(
                (dataset, executor._replica, SOLVER, executor.eval_mode)
            ))
        )
        return executor

    return make


class TestCensusParity:
    @pytest.mark.parametrize("block_size", [7, 2048, 10**6, None])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_serial(self, in_process, case, n_workers, block_size):
        """Ragged last block (7), fewer blocks than workers (2048), one
        block (10**6), and the model's own block hint (None)."""
        dataset, model = _case(case)
        serial = _serial(dataset, model)
        executor = in_process(dataset, model, n_workers)
        if block_size is not None:
            serial.evaluator.block_size = executor.evaluator.block_size = block_size
        assert executor.eval_mode == "stacked"
        # One share per lane, at most one per unit; the server keeps one.
        sent = min(n_workers, len(executor.evaluator.units("train"))) - 1
        for seed in range(3):
            w = _weights(model, seed)
            executor._workers.messages.clear()
            assert executor.train_loss(w) == serial.train_loss(w)
            assert len(executor._workers.messages) == sent
            assert executor.test_accuracy(w) == serial.test_accuracy(w)

    def test_sequence_models_use_their_block_hint(self, in_process):
        dataset, model = _case("sent140-sentlstm")
        executor = in_process(dataset, model, 2)
        assert executor.evaluator.block_size == model.stacked_eval_block_rows == 256
        assert len(executor.evaluator.units("train")) == 3

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_per_client_mode_equals_serial(self, in_process, n_workers):
        dataset, model = _case("images-float32-logistic")
        serial = _serial(dataset, model, "per_client")
        executor = in_process(dataset, model, n_workers, "per_client")
        for seed in range(2):
            w = _weights(model, seed)
            assert executor.train_loss(w) == serial.train_loss(w)
            assert len(executor._workers.messages) == n_workers - 1
            assert executor.test_accuracy(w) == serial.test_accuracy(w)

    @pytest.mark.parametrize("eval_mode", ["stacked", "per_client"])
    def test_no_test_rows_anywhere_raises_on_the_server(self, in_process, eval_mode):
        dataset = make_synthetic(
            1.0, 1.0, num_devices=6, test_fraction=0.0, size_cap=60, name="trainonly"
        )
        model = _logistic(dataset)
        executor = in_process(dataset, model, 2, eval_mode)
        w = _weights(model, 0)
        with pytest.raises(ValueError, match="no test samples anywhere.*trainonly"):
            executor.test_accuracy(w)
        assert executor._workers.messages == []
        assert executor.train_loss(w) == _serial(dataset, model, eval_mode).train_loss(w)


class TestWhatCrossesTheBoundary:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_one_message_per_worker_holding_one_model(self, in_process, n_workers):
        dataset, model = _case("synthetic-logistic")
        executor = in_process(dataset, model, n_workers)
        executor.evaluator.block_size = 64
        dense = 8 * model.n_params
        w = _weights(model, 0)
        for census in (executor.train_loss, executor.test_accuracy):
            census(w)
            messages = executor._workers.messages
            assert len(messages) == n_workers - 1
            for message in messages:
                assert dense < len(message) < 2 * dense

    def test_shares_are_contiguous_and_cover_the_split_in_order(self, in_process):
        dataset, model = _case("synthetic-logistic")
        executor = in_process(dataset, model, 3)
        executor.evaluator.block_size = 100
        executor.train_loss(_weights(model, 0))
        messages = [pickle.loads(blob) for blob in executor._workers.messages]
        assert {kind for kind, _ in messages} == {"census"}
        # The server computes the first share, of 8 blocks, itself.
        units = executor.evaluator.units("train")
        shares = [units[:8]] + [payload[2] for _, payload in messages]
        assert [len(share) for share in shares] == [8, 9, 9]
        joined = [bounds for share in shares for bounds in share]
        assert joined == units
        assert all(payload[1] == "train" for _, payload in messages)

    @pytest.mark.parametrize("eval_mode", ["stacked", "per_client"])
    def test_shares_are_capped_at_the_cores(self, in_process, monkeypatch, eval_mode):
        """``parallel:2`` on one core cuts one share, the server's; the values
        stay ``==``."""
        dataset, model = _case("synthetic-logistic")
        serial = _serial(dataset, model, eval_mode)
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
        executor = in_process(dataset, model, 2, eval_mode)
        serial.evaluator.block_size = executor.evaluator.block_size = 100
        for seed in range(2):
            w = _weights(model, seed)
            assert executor.train_loss(w) == serial.train_loss(w)
            assert executor._workers.messages == []
            assert executor.test_accuracy(w) == serial.test_accuracy(w)

    def test_usable_cores_follow_the_affinity_mask(self, monkeypatch):
        """The cap reads the cores this process may run on, and
        ``os.cpu_count()`` (unknown: one) where there is no affinity call."""
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert parallel._usable_cores() == 1
        monkeypatch.delattr(parallel.os, "sched_getaffinity")
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert parallel._usable_cores() == 1
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 5)
        assert parallel._usable_cores() == 5

    def test_values_are_plain_python_numbers(self, monkeypatch):
        monkeypatch.setattr(parallel, "_WORKER", {})
        dataset, model = _case("images-float32-logistic")
        w = _weights(model, 0)
        for mode in ("stacked", "per_client"):
            parallel._init_worker(dataset, model.spawn_replica(), SOLVER, mode)
            evaluator = parallel._WORKER["evaluator"]
            evaluator.block_size = 50
            losses = evaluator.values(w, "train", evaluator.units("train"))
            counts = evaluator.values(w, "test", evaluator.units("test"))
            assert losses and {type(v) for v in losses} == {float}
            assert counts and {type(v) for v in counts} == {int}


class _PoisonedLogistic(MultinomialLogisticRegression):
    """Raises from ``loss`` once the bias of class 0 is exactly 13 — in a
    forked worker only, so the server's own share of a census computes."""

    HOME = os.getpid()

    def loss(self, X, y):
        if self.b[0] == 13.0 and os.getpid() != self.HOME:
            raise ArithmeticError("poisoned census block")
        return super().loss(X, y)

    def fresh(self):
        return _PoisonedLogistic(dim=self.dim, num_classes=self.num_classes)


@pytest.mark.slow
class TestRealWorkers:
    @pytest.fixture(autouse=True)
    def _shard_small_federations(self, monkeypatch):
        # Read by the server when it decides where a census runs.
        monkeypatch.setattr(parallel, "MIN_ELEMENTS_SAVED", 0)

    def test_spawn_reproduces_fork(self):
        dataset, model = _case("images-float32-logistic")
        serial = _serial(dataset, model)
        serial.evaluator.block_size = 50
        weights = [_weights(model, seed) for seed in range(2)]
        want = [(serial.train_loss(w), serial.test_accuracy(w)) for w in weights]
        for start_method in ("fork", "spawn"):
            executor = ParallelExecutor(n_workers=2, start_method=start_method)
            executor.bind(dataset, model, SOLVER)
            executor.evaluator.block_size = 50
            with executor:
                got = [
                    (executor.train_loss(w), executor.test_accuracy(w))
                    for w in weights
                ]
            assert got == want, start_method

    def test_a_census_between_rounds_leaves_the_history_alone(self):
        dataset = _synthetic()

        def run(engine):
            trainer = FederatedTrainer(
                dataset=dataset, model=_logistic(dataset), solver=SOLVER,
                mu=0.5, clients_per_round=5, seed=1, engine=engine,
                evaluation=EvalConfig(mode="stacked"),
            )
            with trainer:
                first = trainer.run_round()
                extra = (
                    trainer.executor.train_loss(trainer.w),
                    trainer.executor.test_accuracy(trainer.w),
                )
                records = [first, trainer.run_round(), trainer.run_round()]
            return history_digest(records), extra, records[-1].train_loss

        assert run(ParallelExecutor(n_workers=2)) == run(None)

    def test_a_raising_block_surfaces_its_exception_type(self):
        dataset = _synthetic()
        model = _PoisonedLogistic(dim=60, num_classes=10)
        serial = _serial(dataset, MultinomialLogisticRegression(dim=60, num_classes=10))
        executor = ParallelExecutor(n_workers=2)
        executor.bind(dataset, model, SOLVER)
        healthy = _weights(model, 0)
        poisoned = healthy.copy()
        poisoned[60 * 10] = 13.0
        with executor:
            assert executor.train_loss(healthy) == serial.train_loss(healthy)
            with pytest.raises(ArithmeticError, match="poisoned census block") as info:
                executor.train_loss(poisoned)
            assert "in loss" in str(info.value.__cause__)  # the worker's traceback
            # The workers outlive the failure.
            assert executor.train_loss(healthy) == serial.train_loss(healthy)


class TestMemoryAndFallbacks:
    def test_worker_reads_its_own_stacks_in_place(self, in_process):
        dataset, model = _case("images-float32-logistic")
        in_process(dataset, model, 2)
        worker = parallel._WORKER
        assert worker["evaluator"].clients[0] is worker["clients"][0]
        assert worker["evaluator"].model is worker["clients"].model is not model
        for split in ("train", "test"):
            X, y = worker["evaluator"].stack_in_place(split)
            holder = next(
                c for c in worker["clients"] if len(getattr(c, f"{split}_y"))
            )
            assert np.shares_memory(X, getattr(holder, f"{split}_x"))
            assert np.shares_memory(y, getattr(holder, f"{split}_y"))
            assert not np.shares_memory(X, dataset.store.x)

    def test_first_sharded_census_allocates_one_block_at_a_time(self, in_process):
        dataset = make_mnist_like(
            num_devices=14, total_samples=6000, dim=64, min_samples=2, seed=3
        )
        model = _logistic(dataset)
        executor = in_process(dataset, model, 2)
        block_rows = executor.evaluator.block_size = 128
        units = executor.evaluator.units("train")
        assert len(units) > 30
        w = _weights(model, 0)
        tracemalloc.start()
        try:
            parallel._WORKER["evaluator"].values(w, "train", units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The float64 conversion of one block plus its softmax temporaries;
        # a concatenated (or converted) split would be 30 blocks' worth.
        block_bytes = block_rows * 64 * 8
        split_bytes = dataset.store.train_x.nbytes
        assert peak < 2.5 * block_bytes < split_bytes / 5

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_hand_built_federations_are_cut_and_lazy_ones_stay_on_the_server(
        self, in_process, n_workers
    ):
        """A caller's client list is packed, so its census reads in place
        and is cut like a builder's; a lazy store's is not cut."""
        packed = _synthetic()
        model = _logistic(packed)
        hand_built = FederatedDataset(
            "hand-built", clients=list(packed.clients), num_classes=10, input_dim=60
        )
        lazy = make_synthetic_ondemand(1.0, 1.0, num_devices=12, seed=3, size_cap=80)
        sliced = FederatedDataset(
            "sliced", clients=list(packed)[:9], num_classes=10, input_dim=60
        )
        for dataset in (hand_built, lazy, sliced):
            serial = _serial(dataset, model, "stacked")
            executor = in_process(dataset, model, n_workers, "stacked")
            executor.evaluator.block_size = serial.evaluator.block_size = 64
            in_place = executor.evaluator.stack_in_place("train") is not None
            assert in_place == (dataset is not lazy)
            w = _weights(model, 1)
            assert executor.train_loss(w) == serial.train_loss(w)
            assert executor.test_accuracy(w) == serial.test_accuracy(w)
            # MIN_ELEMENTS_SAVED is 0 here: every in-place split is cut.
            assert bool(executor._workers.messages) == (in_place and n_workers > 1)

    def test_a_split_below_the_minimum_work_stays_on_the_server(
        self, in_process, monkeypatch
    ):
        dataset, model = _case("synthetic-logistic")
        serial = _serial(dataset, model)
        executor = in_process(dataset, model, 2)
        executor.evaluator.block_size = serial.evaluator.block_size = 100
        w = _weights(model, 0)
        # 26 blocks cut 13 + 13: the first share's 1300 rows are what the
        # server waits for, the other 1222 rows x 60 features are saved.
        saved = (2522 - 1300) * 60
        monkeypatch.setattr(parallel, "MIN_ELEMENTS_SAVED", saved + 1)
        assert executor.train_loss(w) == serial.train_loss(w)
        assert executor._workers.messages == []
        monkeypatch.setattr(parallel, "MIN_ELEMENTS_SAVED", saved)
        assert executor.train_loss(w) == serial.train_loss(w)
        assert len(executor._workers.messages) == 1

    def test_the_shipped_constant_keeps_small_federations_on_the_server(self):
        assert parallel.MIN_ELEMENTS_SAVED > 2522 * 60
        dataset, model = _case("synthetic-logistic")
        executor = ParallelExecutor(n_workers=2)
        executor.bind(dataset, model, SOLVER)
        InProcessWorkers.install(executor)
        w = _weights(model, 0)
        assert executor.train_loss(w) == _serial(dataset, model).train_loss(w)
        assert executor._workers.messages == []

    def test_a_census_on_one_core_never_pays_a_hand_off(self, monkeypatch):
        """One share is the server's: nothing is taken off it by a worker."""
        monkeypatch.setattr(parallel, "MIN_ELEMENTS_SAVED", 1)
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 1)
        dataset, model = _case("synthetic-logistic")
        executor = ParallelExecutor(n_workers=2)
        executor.bind(dataset, model, SOLVER)
        InProcessWorkers.install(executor)
        executor.evaluator.block_size = 100
        executor.train_loss(_weights(model, 0))
        assert executor._workers.messages == []


class TestLazyChunkStreams:
    """Worker-side per-client evaluation holds the store's cache, not its chunk."""

    CACHE = 64

    @pytest.fixture
    def lazy(self):
        return make_synthetic_ondemand(
            1.0, 1.0, num_devices=2200, seed=3, size_cap=200,
            cache_clients=self.CACHE,
        )

    @staticmethod
    def _peak(message):
        tracemalloc.start()
        try:
            parallel._WORKER["evaluator"].values(*message)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_peak_is_bounded_by_the_cache_not_the_chunk(self, in_process, lazy, split):
        model = _logistic(lazy)
        in_process(lazy, model, 2)
        assert parallel._WORKER["evaluator"].eval_mode == "per_client"
        w = _weights(model, 0)
        one_cache = self._peak((w, split, range(0, self.CACHE)))
        chunk = self._peak((w, split, range(self.CACHE, self.CACHE + 2000)))
        assert chunk <= 2 * one_cache
        info = parallel._WORKER["clients"].dataset.store.cache_info()
        assert info["size"] <= self.CACHE and info["evictions"] >= 2000

    def test_equals_serial_on_the_same_store(self, in_process):
        lazy = make_synthetic_ondemand(
            1.0, 1.0, num_devices=150, seed=3, size_cap=120, cache_clients=16
        )
        model = _logistic(lazy)
        serial = _serial(lazy, model)
        executor = in_process(lazy, model, 3)
        assert executor.eval_mode == serial.eval_mode == "per_client"
        w = _weights(model, 2)
        assert executor.train_loss(w) == serial.train_loss(w)
        assert len(executor._workers.messages) == 2
        assert executor.test_accuracy(w) == serial.test_accuracy(w)
