"""The in-process census on threads: every lane count gives the same bits.

The serial, cohort and async engines cut a stacked census into the
parallel engine's shares (``RoundExecutor._census_cuts``): the model is set
to ``w`` once, the first share runs on the calling thread and every other
on a thread of its own, and the values are joined and reduced in unit
order (DESIGN.md §8, "The census runs where the data already is").  Every
value, and so every reduced loss and accuracy, must ``==`` the one-lane
census; a census the rule does not cut starts no thread, and no thread
outlives a census.  The lane count is forced through the private
``_census_shares``, so a one-core runner still runs the threads.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.datasets import (
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
from repro.runtime import AsyncExecutor, CohortExecutor, SerialExecutor, executor
from repro.runtime.evaluation import FederationEvaluator

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

SOLVER = SGDSolver(0.1, batch_size=10)

#: The rule's constant as shipped (the fixture below lowers it).
SHIPPED_MINIMUM = executor.MIN_ELEMENTS_SAVED

ENGINES = {
    "serial": SerialExecutor,
    "cohort": CohortExecutor,
    "async": lambda: AsyncExecutor(window=2, arrivals="seeded"),
}


def _logistic(dataset):
    return MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes
    )


def _synthetic():
    """float64 rows: 2522 train rows, 619 test rows."""
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


def _weights(model, seed):
    return model.get_params() + 0.1 * np.random.default_rng(seed).normal(
        size=model.n_params
    )


def _bound(engine, dataset, model, eval_mode="auto"):
    bound = ENGINES[engine]()
    bound.bind(dataset, model, SOLVER, eval_mode=eval_mode)
    return bound


@pytest.fixture
def share_threads(monkeypatch):
    """The thread ident of every share computed, in call order; the census
    minimum is dropped to 0 so the small federations here are cut."""
    monkeypatch.setattr(executor, "MIN_ELEMENTS_SAVED", 0)
    idents = []
    unit_values = FederationEvaluator.unit_values

    def recording(self, split, units):
        idents.append(threading.get_ident())
        return unit_values(self, split, units)

    monkeypatch.setattr(FederationEvaluator, "unit_values", recording)
    return idents


def _census(bound, w, lanes):
    """``(train values, test values, train loss, test accuracy)`` of ``w``
    at ``lanes`` in-process lanes."""
    bound._census_shares = lanes
    evaluator = bound.evaluator
    return (
        bound._census_values(w, "train", evaluator.units("train")),
        bound._census_values(w, "test", evaluator.units("test")),
        bound.train_loss(w),
        bound.test_accuracy(w),
    )


def _lane_mismatches(bound, weights, lanes) -> list:
    """Each ``(lanes, seed)`` whose census differs from the one-lane one."""
    return [
        (n, seed)
        for seed, w in enumerate(weights)
        for n in lanes
        if _census(bound, w, n) != _census(bound, w, 1)
    ]


class TestLaneParity:
    @pytest.mark.parametrize("block_size", [7, 64])
    @pytest.mark.parametrize("engine", list(ENGINES))
    @pytest.mark.parametrize("case", list(CASES))
    def test_every_lane_count_equals_one_lane(
        self, share_threads, case, engine, block_size
    ):
        """Ragged last blocks, and splits of fewer blocks than lanes (64)."""
        dataset, model = CASES[case]()
        bound = _bound(engine, dataset, model)
        bound.evaluator.block_size = block_size
        assert bound.eval_mode == "stacked"
        weights = [_weights(model, seed) for seed in range(2)]
        share_threads.clear()
        assert _lane_mismatches(bound, weights, (2, 3)) == []
        # Not vacuous, on any number of cores: shares ran off the caller.
        assert len(set(share_threads)) > 1
        # The reduced results are the serial engine's at one lane, too.
        serial = _bound("serial", dataset, model)
        serial.evaluator.block_size = bound.evaluator.block_size
        for w in weights:
            assert _census(bound, w, 3)[2:] == _census(serial, w, 1)[2:]

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_shares_run_on_as_many_threads_and_none_survives(
        self, share_threads, lanes
    ):
        dataset, model = CASES["images-float32-logistic"]()
        bound = _bound("serial", dataset, model)
        bound.evaluator.block_size = 10  # 25 train blocks, 6 test blocks
        bound._census_shares = lanes
        w = _weights(model, 0)
        alive = threading.active_count()
        for census in (bound.train_loss, bound.test_accuracy):
            share_threads.clear()
            census(w)
            assert threading.active_count() == alive
            # One share each, one of them on the caller (a finished
            # helper's ident may be reused by the next helper).
            assert len(share_threads) == lanes
            assert share_threads.count(threading.get_ident()) == 1


    def test_more_lanes_than_cores_under_fast_switching(self, share_threads):
        """Shares write only their own slot and read a model nobody writes:
        eight lanes switching every microsecond still give one lane's bits."""
        dataset, model = CASES["sent140-sentlstm"]()
        bound = _bound("serial", dataset, model)
        bound.evaluator.block_size = 16
        weights = [_weights(model, seed) for seed in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _lane_mismatches(bound, weights, (8,)) == []
        finally:
            sys.setswitchinterval(interval)


class TestTeeth:
    def test_a_share_at_a_perturbed_w_is_caught(self, share_threads, monkeypatch):
        """A helper thread that computes its share at another ``w`` fails
        the parity check."""
        dataset, model = CASES["synthetic-logistic"]()
        bound = _bound("serial", dataset, model)
        bound.evaluator.block_size = 100
        caller = threading.get_ident()
        shadow = FederationEvaluator(
            bound.clients, model.spawn_replica(), eval_mode="stacked", block_size=100
        )
        unit_values = FederationEvaluator.unit_values

        def perturbed(self, split, units):
            if self is bound.evaluator and threading.get_ident() != caller:
                w = self.model.get_params() + 0.5
                return shadow.values(w, split, units)
            return unit_values(self, split, units)

        weights = [_weights(model, 0)]
        assert _lane_mismatches(bound, weights, (2, 3)) == []
        monkeypatch.setattr(FederationEvaluator, "unit_values", perturbed)
        assert _lane_mismatches(bound, weights, (2, 3)) == [(2, 0), (3, 0)]

    def test_a_helper_threads_exception_is_raised_in_the_caller(
        self, share_threads, monkeypatch
    ):
        dataset, model = CASES["synthetic-logistic"]()
        bound = _bound("serial", dataset, model)
        bound.evaluator.block_size = 100
        bound._census_shares = 3
        caller = threading.get_ident()
        unit_values = FederationEvaluator.unit_values

        def poisoned(self, split, units):
            if threading.get_ident() != caller:
                raise ArithmeticError("poisoned census share")
            return unit_values(self, split, units)

        monkeypatch.setattr(FederationEvaluator, "unit_values", poisoned)
        alive = threading.active_count()
        with pytest.raises(ArithmeticError, match="poisoned census share"):
            bound.train_loss(_weights(model, 0))
        assert threading.active_count() == alive


class TestNoThread:
    def _assert_on_the_caller(self, bound, idents):
        w = _weights(bound.model, 1)
        serial = _bound("serial", bound.dataset, bound.model, bound.eval_mode)
        serial.evaluator.block_size = bound.evaluator.block_size
        serial._census_shares = 1
        for census in ("train_loss", "test_accuracy"):
            want = getattr(serial, census)(w)
            idents.clear()
            assert getattr(bound, census)(w) == want
            assert idents == [threading.get_ident()], census

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_the_shipped_minimum_keeps_small_federations_on_the_caller(
        self, share_threads, monkeypatch, engine
    ):
        monkeypatch.setattr(executor, "MIN_ELEMENTS_SAVED", SHIPPED_MINIMUM)
        assert SHIPPED_MINIMUM > 2522 * 60
        dataset, model = CASES["synthetic-logistic"]()
        bound = _bound(engine, dataset, model)
        bound.evaluator.block_size = 100
        bound._census_shares = 3
        self._assert_on_the_caller(bound, share_threads)

    def test_a_cut_saves_at_least_the_minimum(self, share_threads, monkeypatch):
        """26 blocks cut 13 + 13 save 1222 rows x 60 features: a cut at
        exactly that minimum, none above it."""
        dataset, model = CASES["synthetic-logistic"]()
        bound = _bound("serial", dataset, model)
        bound.evaluator.block_size = 100
        bound._census_shares = 2
        w = _weights(model, 0)
        saved = (2522 - 1300) * 60
        monkeypatch.setattr(executor, "MIN_ELEMENTS_SAVED", saved + 1)
        share_threads.clear()
        bound.train_loss(w)
        assert len(share_threads) == 1
        monkeypatch.setattr(executor, "MIN_ELEMENTS_SAVED", saved)
        share_threads.clear()
        bound.train_loss(w)
        assert len(set(share_threads)) == 2

    @pytest.mark.parametrize("eval_mode", ["auto", "stacked", "per_client"])
    def test_lazy_stores_and_device_reads_stay_on_the_caller(
        self, share_threads, eval_mode
    ):
        """On demand (``auto`` is per-client there; ``stacked`` is not owned
        in place) and per-client on a packed store."""
        datasets = [
            make_synthetic_ondemand(1.0, 1.0, num_devices=12, seed=3, size_cap=80)
        ]
        if eval_mode == "per_client":
            datasets.append(_synthetic())
        model = _logistic(datasets[0])
        for dataset in datasets:
            bound = _bound("serial", dataset, model, eval_mode)
            bound.evaluator.block_size = 64
            bound._census_shares = 3
            self._assert_on_the_caller(bound, share_threads)
