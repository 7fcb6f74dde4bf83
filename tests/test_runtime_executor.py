"""Unit tests for the round execution engine (repro.runtime)."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.core import FederatedTrainer
from repro.datasets import ClientData, FederatedDataset
from repro.models import MultinomialLogisticRegression
from repro.models.base import FederatedModel
from repro.optim import SGDSolver
from repro.runtime import (
    FederationEvaluator,
    LocalTask,
    ParallelExecutor,
    SerialExecutor,
    resolve_eval_mode,
    task_rng,
)
from tests.conftest import InProcessWorkers, make_pool


def _bound_serial(dataset, eval_mode="auto"):
    model = MultinomialLogisticRegression(dim=6, num_classes=3)
    executor = SerialExecutor()
    executor.bind(
        dataset, model, SGDSolver(0.1, batch_size=8),
        eval_mode=eval_mode,
    )
    return executor, model


class TestLocalTask:
    def test_rng_rebuilds_identically(self):
        task = LocalTask(
            client_id=0, w_global=np.zeros(3), mu=0.0, epochs=1.0,
            rng_entropy=(7, 3, 0, 0),
        )
        a = task_rng(task).permutation(10)
        b = task_rng(task).permutation(10)
        np.testing.assert_array_equal(a, b)

    def test_task_pickles(self):
        task = LocalTask(
            client_id=2, w_global=np.arange(4.0), mu=0.5, epochs=0.4,
            rng_entropy=(1, 2, 3, 4), measure_gamma=True,
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.client_id == 2 and clone.rng_entropy == (1, 2, 3, 4)
        np.testing.assert_array_equal(clone.w_global, task.w_global)


class TestEvalModeResolution:
    def test_auto_picks_stacked_for_logistic(self):
        model = MultinomialLogisticRegression(dim=4, num_classes=2)
        assert resolve_eval_mode(model, "auto") == "stacked"

    def test_auto_falls_back_without_support(self):
        class Plain(MultinomialLogisticRegression):
            @property
            def supports_stacked_eval(self):
                return False

        assert resolve_eval_mode(Plain(dim=4, num_classes=2), "auto") == "per_client"

    def test_explicit_stacked_rejected_without_support(self):
        class Plain(MultinomialLogisticRegression):
            @property
            def supports_stacked_eval(self):
                return False

        with pytest.raises(ValueError, match="stacked"):
            resolve_eval_mode(Plain(dim=4, num_classes=2), "stacked")

    def test_unknown_mode_rejected(self):
        model = MultinomialLogisticRegression(dim=4, num_classes=2)
        with pytest.raises(ValueError):
            resolve_eval_mode(model, "vectorized")


class TestFederationEvaluator:
    def test_stacked_matches_per_client(self, toy_dataset):
        """The fast path agrees with the legacy loop to fp precision."""
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        solver = SGDSolver(0.1)
        clients = make_pool(toy_dataset, model, solver)
        fast = FederationEvaluator(clients, model, eval_mode="stacked")
        slow = FederationEvaluator(clients, model, eval_mode="per_client")
        rng = np.random.default_rng(0)
        for _ in range(3):
            w = rng.normal(size=model.n_params)
            assert fast.train_loss(w) == pytest.approx(
                slow.train_loss(w), abs=1e-12
            )
            assert fast.test_accuracy(w) == slow.test_accuracy(w)

    def test_no_test_samples_error_names_federation(self):
        data = ClientData(
            client_id=0,
            train_x=np.zeros((4, 2)),
            train_y=np.zeros(4, dtype=int),
            test_x=np.zeros((0, 2)),
            test_y=np.zeros(0, dtype=int),
        )
        dataset = FederatedDataset("trainonly", [data], num_classes=2, input_dim=2)
        executor, model = _bound_serial(dataset)
        with pytest.raises(ValueError, match="trainonly"):
            executor.test_accuracy(np.zeros(model.n_params))


class TestGlobalTestAccuracy:
    def test_zero_test_clients_skipped(self, toy_dataset):
        """Zero-test devices contribute nothing (and are not iterated)."""
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        solver = SGDSolver(0.1)
        w = np.zeros(model.n_params)
        baseline = FederationEvaluator(
            make_pool(toy_dataset, model, solver), model, "per_client"
        ).test_accuracy(w)

        empty = ClientData(
            client_id=99,
            train_x=np.zeros((4, 6)),
            train_y=np.zeros(4, dtype=int),
            test_x=np.zeros((0, 6)),
            test_y=np.zeros(0, dtype=int),
        )
        grown = FederationEvaluator(
            make_pool([*toy_dataset, empty], model, solver), model, "per_client"
        )
        assert grown.test_accuracy(w) == baseline

    def test_error_message_includes_label(self):
        model = MultinomialLogisticRegression(dim=2, num_classes=2)
        data = ClientData(
            client_id=0,
            train_x=np.zeros((3, 2)),
            train_y=np.zeros(3, dtype=int),
            test_x=np.zeros((0, 2)),
            test_y=np.zeros(0, dtype=int),
        )
        evaluator = FederationEvaluator(
            make_pool([data], model, name="mnist-like"), model, "per_client"
        )
        with pytest.raises(ValueError, match="'mnist-like'"):
            evaluator.test_accuracy(np.zeros(model.n_params))


class TestSerialExecutor:
    def test_trainer_defaults_to_serial(self, toy_dataset):
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        trainer = FederatedTrainer(
            dataset=toy_dataset, model=model,
            solver=SGDSolver(0.1, batch_size=8), clients_per_round=3,
        )
        assert isinstance(trainer.executor, SerialExecutor)
        assert trainer.executor.clients is not None

    def test_unbound_executor_rejects_work(self):
        executor = SerialExecutor()
        with pytest.raises(RuntimeError, match="bind"):
            executor.run_local_solves([])

    def test_solves_match_direct_client_calls(self, toy_dataset):
        executor, model = _bound_serial(toy_dataset)
        w = np.zeros(model.n_params)
        task = LocalTask(
            client_id=1, w_global=w, mu=0.5, epochs=2.0,
            rng_entropy=(0, 0, 1, 0),
        )
        [update] = executor.run_local_solves([task])
        direct = executor.clients.local_solve(
            1, w_global=w, mu=0.5, epochs=2.0, rng=task_rng(task)
        )
        np.testing.assert_array_equal(update.w, direct.w)
        assert update.client_id == 1


class _NoReplicaModel(MultinomialLogisticRegression):
    """A model that opts out of the replica protocol."""

    def spawn_replica(self):
        raise NotImplementedError("no replicas here")


class TestParallelExecutorContracts:
    def test_missing_spawn_replica_fails_loudly(self, toy_dataset):
        """No silent serialization: binding must raise TypeError."""
        with pytest.raises(TypeError, match="spawn_replica"):
            FederatedTrainer(
                dataset=toy_dataset,
                model=_NoReplicaModel(dim=6, num_classes=3),
                solver=SGDSolver(0.1, batch_size=8),
                clients_per_round=3,
                engine=ParallelExecutor(n_workers=2),
            )

    def test_base_default_raises_not_implemented(self):
        model = MultinomialLogisticRegression(dim=4, num_classes=2)
        with pytest.raises(NotImplementedError, match="spawn_replica"):
            FederatedModel.spawn_replica(model)

    def test_logistic_replica_is_independent(self):
        model = MultinomialLogisticRegression(dim=4, num_classes=2)
        replica = model.spawn_replica()
        assert replica is not model
        np.testing.assert_array_equal(replica.get_params(), model.get_params())
        replica.set_params(np.ones(model.n_params))
        assert not np.array_equal(replica.get_params(), model.get_params())

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(n_workers=0)

    def test_replica_survives_pickle(self):
        model = MultinomialLogisticRegression(dim=5, num_classes=3, l2=0.1)
        replica = pickle.loads(pickle.dumps(model.spawn_replica()))
        X = np.random.default_rng(0).normal(size=(7, 5))
        y = np.array([0, 1, 2, 0, 1, 2, 0])
        w = np.random.default_rng(1).normal(size=model.n_params)
        model.set_params(w)
        replica.set_params(w)
        assert replica.loss(X, y) == model.loss(X, y)


@pytest.mark.slow
class TestParallelExecutorEndToEnd:
    def test_empty_task_list(self, toy_dataset):
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        executor = ParallelExecutor(n_workers=2)
        executor.bind(toy_dataset, model, SGDSolver(0.1, batch_size=8))
        try:
            assert executor.run_local_solves([]) == []
        finally:
            executor.close()

    def test_pool_survives_multiple_rounds_and_close_is_idempotent(
        self, toy_dataset
    ):
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        trainer = FederatedTrainer(
            dataset=toy_dataset, model=model,
            solver=SGDSolver(0.1, batch_size=8), clients_per_round=3,
            engine=ParallelExecutor(n_workers=2),
        )
        with trainer:
            history = trainer.run(2)
            assert len(history) == 2
        trainer.close()  # second close is a no-op


class _WorkerHostileSolver(SGDSolver):
    """Solves on the server; in any other process raises, or is killed
    outright when the budget is :attr:`KILL_EPOCHS`."""

    KILL_EPOCHS = 0.75

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.home = os.getpid()

    def solve(self, objective, w_global, epochs, rng):
        if os.getpid() != self.home:
            if epochs == self.KILL_EPOCHS:
                os.kill(os.getpid(), signal.SIGKILL)
            raise LookupError(f"no solves outside pid {self.home}")
        return super().solve(objective, w_global, epochs, rng)


@pytest.mark.slow
class TestLaneFailures:
    """The pipes' failure paths, on real worker processes."""

    @staticmethod
    def _executor(toy_dataset, n_workers=2, solver=None):
        executor = ParallelExecutor(n_workers=n_workers)
        executor.bind(
            toy_dataset, MultinomialLogisticRegression(dim=6, num_classes=3),
            solver or _WorkerHostileSolver(0.1, batch_size=8),
        )
        return executor

    @staticmethod
    def _tasks(n, epochs=1.0):
        return [
            LocalTask(client_id=cid, w_global=np.zeros(21), mu=0.5,
                      epochs=epochs, rng_entropy=(3, 0, cid, 0))
            for cid in range(n)
        ]

    def test_a_worker_exception_reaches_the_server(self, toy_dataset):
        with self._executor(toy_dataset) as executor:
            with pytest.raises(LookupError, match="no solves outside pid") as info:
                executor.run_local_solves(self._tasks(4))
            assert "in solve\n    raise LookupError" in str(info.value.__cause__)
            workers = executor._workers
            # The worker outlives its exception; the server alone solves.
            assert executor.run_local_solves(self._tasks(1))[0].w is not None
            assert executor._workers is workers
            assert all(w.process.is_alive() for w in workers)

    def test_a_worker_killed_mid_round_raises(self, toy_dataset):
        executor = self._executor(toy_dataset)
        executor.ensure_started()
        processes = [worker.process for worker in executor._workers]
        with executor:
            with pytest.raises(RuntimeError, match=r"exited \(code -9\)"):
                executor.run_local_solves(
                    self._tasks(2, epochs=_WorkerHostileSolver.KILL_EPOCHS)
                )
            # Every lane is stopped; the next call that needs one starts
            # fresh ones.
            assert executor._workers is None
            assert not any(process.is_alive() for process in processes)
            executor.ensure_started()
            assert all(w.process.is_alive() for w in executor._workers)

    def test_close_twice_is_a_no_op(self, toy_dataset):
        executor = self._executor(toy_dataset, solver=SGDSolver(0.1, batch_size=8))
        executor.run_local_solves(self._tasks(4))
        (worker,) = executor._workers
        executor.close()
        executor.close()
        assert executor._workers is None
        assert worker.process.exitcode == 0

    def test_a_rebind_after_close_starts_fresh_lanes(self, toy_dataset):
        solver = SGDSolver(0.1, batch_size=8)
        executor = self._executor(toy_dataset, solver=solver)
        first = executor.run_local_solves(self._tasks(4))
        (old,) = executor._workers
        executor.close()
        executor.bind(toy_dataset, executor.model, solver)
        with executor:
            again = executor.run_local_solves(self._tasks(4))
            (new,) = executor._workers
            assert new.process.pid != old.process.pid
            assert not old.process.is_alive()
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.w, b.w)

    def test_one_lane_starts_no_process(self, toy_dataset):
        before = multiprocessing.active_children()
        with FederatedTrainer(
            dataset=toy_dataset,
            model=MultinomialLogisticRegression(dim=6, num_classes=3),
            solver=_WorkerHostileSolver(0.1, batch_size=8),
            clients_per_round=4, engine="parallel:1",
        ) as trainer:
            trainer.run(2)  # any solve off the server would raise
            assert multiprocessing.active_children() == before
            assert not trainer.executor._workers


@pytest.mark.filterwarnings("ignore:ParallelExecutor:RuntimeWarning")
class TestPerWorkerMessages:
    """One message per worker per round (DESIGN.md §8): ``parallel:N`` sends
    N − 1, the server solving one share itself."""

    @pytest.fixture
    def bound(self, synthetic_small, monkeypatch):
        from repro.core.client import ClientPool
        from repro.runtime import parallel

        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        solver = SGDSolver(0.01, batch_size=10)

        def make(n_workers):
            executor = ParallelExecutor(n_workers=n_workers)
            executor.bind(synthetic_small, model, solver)
            return InProcessWorkers.install(executor)

        monkeypatch.setitem(
            parallel._WORKER, "clients",
            ClientPool(synthetic_small, model.spawn_replica(), solver),
        )
        serial = SerialExecutor()
        serial.bind(synthetic_small, model, solver)
        return make, serial, model.n_params

    @staticmethod
    def _tasks(w_global, client_ids, epochs):
        return [
            LocalTask(
                client_id=cid, w_global=w_global, mu=0.5, epochs=e,
                rng_entropy=(3, 0, cid, 0),
            )
            for cid, e in zip(client_ids, epochs)
        ]

    def test_lpt_split_balances_predicted_steps(self):
        from repro.runtime.parallel import _split_by_work

        assert _split_by_work([5, 1, 4, 3, 3], 2) == [[0, 4], [1, 2, 3]]
        # Ties go to the earlier position and the lower group; a group
        # that gets nothing sends no message.
        assert _split_by_work([2, 2, 2], 2) == [[0, 2], [1]]
        assert _split_by_work([7], 3) == [[0]]
        assert _split_by_work([1, 1, 1, 1, 1], 1) == [[0, 1, 2, 3, 4]]

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_updates_return_in_task_order(self, bound, n_workers):
        make, serial, d = bound
        # Unequal budgets: LPT sends the heavy tasks to different workers,
        # so position order and message order disagree.
        tasks = self._tasks(
            np.zeros(d), [5, 0, 7, 2, 6], [0.5, 4.0, 1.0, 3.0, 0.5]
        )
        executor = make(n_workers)
        updates = executor.run_local_solves(tasks)
        assert len(executor._workers.messages) == min(n_workers, len(tasks)) - 1
        assert [u.client_id for u in updates] == [t.client_id for t in tasks]
        for got, want in zip(updates, serial.run_local_solves(tasks)):
            np.testing.assert_array_equal(got.w, want.w)

    def test_model_crosses_once_per_message(self, bound):
        make, _, d = bound
        dense = 8 * d
        executor = make(2)
        executor.run_local_solves(
            self._tasks(np.ones(d), range(5), [1.0] * 5)
        )
        (message,) = executor._workers.messages
        assert len(pickle.loads(message)[1]) == 2
        assert dense < len(message) < 2 * dense

    def test_mixed_batch_ships_each_model_once(self, bound):
        """A batch holding two rounds' models (a retry wave next to fresh
        tasks, an async drain) takes the same path: each distinct array
        crosses once and every task solves against its own."""
        make, serial, d = bound
        old, new = np.zeros(d), np.full(d, 0.01)
        tasks = self._tasks(old, [0, 1, 2], [1.0] * 3) + self._tasks(
            new, [3, 4, 5], [1.0] * 3
        )
        executor = make(2)
        # Equal budgets: LPT deals the six tasks out alternately, so the
        # worker's share holds tasks of both rounds.
        updates = executor.run_local_solves(tasks)
        (message,) = executor._workers.messages
        assert 2 * 8 * d < len(message) < 3 * 8 * d
        for got, want in zip(updates, serial.run_local_solves(tasks)):
            np.testing.assert_array_equal(got.w, want.w)

    def test_a_reply_ships_no_task_and_the_server_reattaches_it(self, bound):
        """A worker's reply is the updates alone — no larger for a fault
        the task carried (it used to ride back on the update)."""
        from dataclasses import replace

        from repro.faults.models import FaultDecision
        from repro.runtime import parallel

        make, _, d = bound
        healthy = self._tasks(np.zeros(d), range(5), [1.0] * 5)
        crash = FaultDecision("crash", fraction=0.5)
        crashed = [replace(task, fault=crash) for task in healthy]
        replies = [
            pickle.dumps(parallel._solve_batch(parallel._WORKER["clients"], tasks))
            for tasks in (healthy, crashed)
        ]
        assert all(update.task is None for update in pickle.loads(replies[1]))
        assert len(replies[1]) == len(replies[0]) < 5 * (8 * d + 200)
        updates = make(2).run_local_solves(crashed)
        assert [id(u.task) for u in updates] == [id(t) for t in crashed]

    def test_feddane_correction_survives_batching(self, bound):
        make, serial, d = bound
        rng = np.random.default_rng(0)
        w = np.zeros(d)
        tasks = [
            LocalTask(
                client_id=cid, w_global=w, mu=0.5, epochs=1.0,
                rng_entropy=(3, 0, cid, 0),
                correction=rng.normal(scale=0.1, size=d),
            )
            for cid in range(5)
        ]
        plain = serial.run_local_solves(self._tasks(w, range(5), [1.0] * 5))
        corrected = serial.run_local_solves(tasks)
        assert not np.array_equal(plain[0].w, corrected[0].w)
        for got, want in zip(make(2).run_local_solves(tasks), corrected):
            np.testing.assert_array_equal(got.w, want.w)


class TestParallelWorkerHeuristics:
    """n_workers='auto' and the one-time oversubscription guardrail."""

    @pytest.fixture(autouse=True)
    def _reset_warning_flag(self):
        from repro.runtime import parallel

        parallel._OVERSUBSCRIPTION_WARNED = False
        yield
        parallel._OVERSUBSCRIPTION_WARNED = False

    def test_auto_matches_the_usable_cores(self, monkeypatch):
        """A 2-core cpuset on a 64-core host: "auto" starts 2 workers, and
        the oversubscription warning compares against the same 2."""
        import os
        import warnings

        from repro.runtime import make_executor, parallel

        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for executor in (
            ParallelExecutor(n_workers="auto"),
            ParallelExecutor(n_workers=None),
            make_executor("parallel:auto"),
        ):
            assert executor.n_workers == 2
            assert executor._census_shares == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_executor("parallel:2").n_workers == 2
        with pytest.warns(RuntimeWarning, match="only 2 CPU core"):
            assert ParallelExecutor(n_workers=3).n_workers == 3

    def test_default_none_matches_auto(self):
        assert (
            ParallelExecutor(n_workers=None).n_workers
            == ParallelExecutor(n_workers="auto").n_workers
        )

    def test_auto_never_warns(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ParallelExecutor(n_workers="auto")

    def test_invalid_string_rejected(self):
        with pytest.raises(ValueError, match="'auto'"):
            ParallelExecutor(n_workers="all-of-them")

    def test_oversubscription_warns_exactly_once(self):
        import os
        import warnings

        from repro.runtime.parallel import _usable_cores

        requested = _usable_cores() + 7
        with pytest.warns(RuntimeWarning, match="oversubscribed"):
            ParallelExecutor(n_workers=requested)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            executor = ParallelExecutor(n_workers=requested)
        assert executor.n_workers == requested  # request honored, not capped
