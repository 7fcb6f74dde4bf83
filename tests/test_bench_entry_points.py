"""The calls ``bench/probes.py`` makes into the package, pinned in tier-1.

The benchmark's micro-probes build the runtime's pieces by hand rather
than through a trainer: a :class:`ClientPool` called positionally, a
stacked :class:`FederationEvaluator` and a :class:`SampledEvaluator` over
it, executors bound with ``bind(dataset, model, solver)`` and driven with
``run_local_solves`` alone, and a hand-built :class:`ClientUpdate`.  Those
signatures are exercised here the way the probes make them, so changing
one fails tier-1 and not only the benchmark.
"""

from __future__ import annotations

import math
import pickle

import numpy as np

from repro.core import EvalConfig, FederatedTrainer
from repro.core.client import ClientPool, ClientUpdate
from repro.datasets import make_synthetic
from repro.datasets.store import make_synthetic_ondemand
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import (
    CohortExecutor,
    FederationEvaluator,
    LocalTask,
    SampledEvaluator,
    SerialExecutor,
)


def _model():
    return MultinomialLogisticRegression(dim=60, num_classes=10)


SOLVER = SGDSolver(0.01, batch_size=10)


def test_the_stacked_evaluator_equals_the_trainers_own_census():
    dataset = make_synthetic(1.0, 1.0, num_devices=60, seed=0)
    trainer = FederatedTrainer(
        dataset=dataset, model=_model(), solver=SOLVER, mu=1.0,
        clients_per_round=5, evaluation=EvalConfig(mode="stacked"),
    )
    [record] = trainer.run(1).records
    model = _model()
    evaluator = FederationEvaluator(
        ClientPool(dataset, model, SOLVER), model, eval_mode="stacked"
    )
    assert evaluator.train_loss(trainer.w) == record.train_loss


def test_the_sampled_estimate_runs_on_an_on_demand_pool():
    lazy = make_synthetic_ondemand(1.0, 1.0, num_devices=10_000, seed=0)
    model = _model()
    sampled = SampledEvaluator(
        ClientPool(lazy, model, SOLVER), lazy.train_sizes, lazy.test_sizes,
        sample_size=100, num_strata=10, seed=0,
    )
    estimate = sampled.train_loss(model.get_params(), 0)
    assert estimate.sample_size == 100 and not estimate.full
    assert math.isfinite(estimate.value) and estimate.ci_halfwidth > 0


def test_run_local_solves_without_begin_round_answers_every_task():
    small = make_synthetic(1.0, 1.0, num_devices=30, seed=0)
    model = _model()
    w = model.get_params()
    tasks = [
        LocalTask(client_id=cid, w_global=w, mu=1.0, epochs=20,
                  rng_entropy=(0, 0, cid, 0))
        for cid in range(10)
    ]
    for executor in (CohortExecutor(), SerialExecutor()):
        executor.bind(small, model, SOLVER)
        for _ in range(2):  # the probe times repeated calls
            updates = executor.run_local_solves(tasks)
            assert [u.client_id for u in updates] == list(range(10))
            assert all(u.w.shape == w.shape for u in updates)


def test_a_hand_built_update_round_trips_through_pickle():
    wide = np.random.default_rng(0).standard_normal(7850)
    update = ClientUpdate(client_id=3, w=wide.copy(), num_train=80, epochs=1.0,
                          gradient_evaluations=8)
    clone = pickle.loads(pickle.dumps(update))
    assert clone.client_id == 3 and clone.num_train == 80
    assert np.array_equal(clone.w, wide)
