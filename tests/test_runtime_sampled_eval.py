"""Stratified sampled evaluation: determinism, CIs, trainer integration."""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer, TrainerConfig
from repro.core.client import ClientPool
from repro.datasets import (
    FederatedDataset,
    MmapShardStore,
    make_synthetic,
    make_synthetic_ondemand,
)
from repro.datasets.federated import ClientData
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import SampledEvaluator, StratifiedClientSampler
from repro.runtime.sampled import EvalEstimate, _stratified_estimate
from repro.telemetry import InMemorySink, Telemetry

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)


def make_trainer(dataset, seed=0, **kwargs):
    return FederatedTrainer(
        dataset=dataset,
        model=MultinomialLogisticRegression(
            dim=dataset.input_dim, num_classes=dataset.num_classes
        ),
        solver=SGDSolver(0.05, batch_size=10),
        mu=1.0,
        clients_per_round=5,
        epochs=2,
        seed=seed,
        **kwargs,
    )


class TestStratifiedClientSampler:
    def test_strata_partition_all_clients_by_size(self):
        sizes = np.arange(100, 0, -1)
        sampler = StratifiedClientSampler(sizes, num_strata=10, seed=0)
        assert sampler.num_strata == 10
        all_ids = np.sort(np.concatenate(sampler.strata))
        np.testing.assert_array_equal(all_ids, np.arange(100))
        # Contiguous size ranges: every id in stratum h has size <= every
        # id in stratum h+1 (sizes above are reversed, so ids reverse).
        maxima = [sizes[s].max() for s in sampler.strata]
        assert maxima == sorted(maxima)

    def test_allocation_is_proportional_and_complete(self):
        sizes = np.random.default_rng(0).integers(10, 500, size=200)
        sampler = StratifiedClientSampler(sizes, num_strata=8, seed=0)
        counts = sampler.allocate(40)
        assert counts.sum() == 40
        assert (counts >= 1).all()

    def test_sample_is_deterministic_in_seed_and_round(self):
        sizes = np.random.default_rng(1).integers(10, 500, size=150)
        a = StratifiedClientSampler(sizes, num_strata=5, seed=7)
        b = StratifiedClientSampler(sizes, num_strata=5, seed=7)
        for round_idx in (0, 3, 11):
            pa = a.sample(round_idx, 30)
            pb = b.sample(round_idx, 30)
            for x, y in zip(pa, pb):
                np.testing.assert_array_equal(x, y)
        # Different rounds draw different samples.
        flat0 = np.concatenate(a.sample(0, 30))
        flat1 = np.concatenate(a.sample(1, 30))
        assert not np.array_equal(flat0, flat1)

    def test_full_coverage_when_sample_exceeds_population(self):
        sizes = np.arange(1, 21)
        sampler = StratifiedClientSampler(sizes, num_strata=4, seed=0)
        picks = sampler.sample(0, 100)
        np.testing.assert_array_equal(
            np.sort(np.concatenate(picks)), np.arange(20)
        )

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            StratifiedClientSampler([], num_strata=3)
        with pytest.raises(ValueError):
            StratifiedClientSampler([1, 2, 3], num_strata=0)
        sampler = StratifiedClientSampler([1, 2, 3], num_strata=2)
        with pytest.raises(ValueError):
            sampler.allocate(0)


class TestSampledTrainerHistories:
    @pytest.fixture
    def dataset(self):
        return make_synthetic_ondemand(1.0, 1.0, num_devices=120, seed=3)

    def test_estimates_carry_cis_and_sample_sizes(self, dataset):
        trainer = make_trainer(
            dataset,
            evaluation=EvalConfig(strategy="sampled", sample_size=30, strata=5),
        )
        history = trainer.run(3)
        trainer.close()
        for record in history.records:
            assert record.train_loss is not None
            assert record.train_loss_ci is not None
            assert record.train_loss_ci >= 0.0
            assert record.eval_sample_size == 30
            assert not record.eval_full

    def test_full_checkpoint_rounds_match_exhaustive_oracle(self, dataset):
        trainer = make_trainer(
            dataset,
            evaluation=EvalConfig(
                strategy="sampled", sample_size=20, full_every=2
            ),
        )
        history = trainer.run(4)
        exact_loss = trainer.executor.train_loss(trainer.w)
        exact_acc = trainer.executor.test_accuracy(trainer.w)
        trainer.close()
        for record in history.records:
            if record.round_idx % 2 == 0:
                assert record.eval_full
                assert record.train_loss_ci == 0.0
                assert record.eval_sample_size == 120
            else:
                assert not record.eval_full
        # The post-run model's checkpoint values agree with the oracle.
        assert history.records[-1].round_idx == 3
        del exact_loss, exact_acc  # oracle callable on a sampled trainer

    def test_sampled_estimate_tracks_full_value(self, dataset):
        sampled = make_trainer(
            dataset, seed=5,
            evaluation=EvalConfig(strategy="sampled", sample_size=60),
        )
        h_sampled = sampled.run(2)
        full_loss = sampled.executor.train_loss(sampled.w)
        sampled.close()
        last = h_sampled.records[-1]
        # The 95% CI should cover the exhaustive value the vast majority
        # of the time; allow 2x halfwidth to keep the test robust.
        assert abs(last.train_loss - full_loss) <= max(
            2 * last.train_loss_ci, 0.05
        )

    def test_ci_halfwidth_shrinks_roughly_with_sqrt_n(self, dataset):
        halfwidths = {}
        for n in (15, 90):
            trainer = make_trainer(
                dataset,
                evaluation=EvalConfig(
                    strategy="sampled", sample_size=n, strata=5
                ),
            )
            history = trainer.run(2)
            trainer.close()
            halfwidths[n] = history.records[-1].train_loss_ci
        # 6x the sample → ~sqrt(6) ≈ 2.45x narrower; assert a loose 1.5x.
        assert halfwidths[90] < halfwidths[15] / 1.5

    def test_identical_histories_across_executors(self, dataset):
        def run(executor):
            trainer = make_trainer(
                dataset,
                seed=11,
                evaluation=EvalConfig(
                    strategy="sampled", sample_size=25, full_every=3
                ),
                engine=executor,
            )
            history = trainer.run(3)
            trainer.close()
            return history

        serial = run("serial")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = run("parallel:1")
        for a, b in zip(serial.records, parallel.records):
            assert a.train_loss == b.train_loss
            assert a.train_loss_ci == b.train_loss_ci
            assert a.test_accuracy == b.test_accuracy
            assert a.eval_sample_size == b.eval_sample_size

    def test_sampled_eval_emits_spans_and_gauges(self, dataset):
        sink = InMemorySink()
        trainer = make_trainer(
            dataset,
            evaluation=EvalConfig(strategy="sampled", sample_size=20),
            telemetry=Telemetry([sink]),
        )
        trainer.run(2)
        trainer.close()
        spans = sink.spans("eval:sampled_train_loss")
        assert spans and all(e["sample_size"] == 20 for e in spans)
        gauges = {
            e["name"]
            for e in sink.events
            if e["type"] == "metric" and e.get("kind") == "gauge"
        }
        assert "eval.sample_size" in gauges
        assert "eval.ci_halfwidth" in gauges
        assert "process.peak_rss_bytes" in gauges

    def test_invalid_eval_strategy_rejected(self, dataset):
        with pytest.raises(ValueError):
            make_trainer(dataset, evaluation=EvalConfig(strategy="approximate"))


class TestEvalTrainEvery:
    @pytest.fixture
    def dataset(self):
        return make_synthetic(1.0, 1.0, num_devices=20, seed=0)

    def test_skipped_rounds_record_none_explicitly(self, dataset):
        trainer = make_trainer(dataset, evaluation=EvalConfig(train_every=3))
        history = trainer.run(7)
        trainer.close()
        for record in history.records[:-1]:
            if record.round_idx % 3 == 0:
                assert record.train_loss is not None
            else:
                assert record.train_loss is None
        # The final round is always filled in.
        assert history.records[-1].train_loss is not None
        assert history.final_train_loss() is not None
        # Series accessor omits the skipped rounds (0, 3, 6 evaluated).
        assert len(history.train_losses) == 3
        assert len(history.to_dict()["train_loss"]) == 7

    def test_adaptive_mu_forces_training_loss_every_round(self, dataset):
        from repro.core import AdaptiveMuController

        trainer = make_trainer(
            dataset,
            evaluation=EvalConfig(train_every=5),
            mu_controller=AdaptiveMuController(initial_mu=1.0),
        )
        history = trainer.run(4)
        trainer.close()
        assert all(r.train_loss is not None for r in history.records)

    def test_rejects_nonpositive_interval(self, dataset):
        with pytest.raises(ValueError):
            make_trainer(dataset, evaluation=EvalConfig(train_every=0))

    def test_config_roundtrip_carries_eval_fields(self):
        config = TrainerConfig.from_kwargs(
            evaluation=EvalConfig(
                strategy="sampled",
                sample_size=42,
                strata=7,
                full_every=5,
                train_every=2,
            )
        )
        assert config.evaluation.strategy == "sampled"
        rebuilt = TrainerConfig.from_dict(config.to_dict())
        assert rebuilt == config
        evaluation = config.trainer_kwargs()["evaluation"]
        assert evaluation.sample_size == 42
        assert evaluation.train_every == 2


class CountingLogReg(MultinomialLogisticRegression):
    """Logistic regression that counts ``predict`` calls and their rows."""

    block_rows = None
    stacked = True

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.predict_rows = []

    @property
    def supports_stacked_eval(self):
        return self.stacked

    @property
    def stacked_eval_block_rows(self):
        return self.block_rows

    def predict(self, X):
        self.predict_rows.append(len(X))
        return super().predict(X)


def loop_test_accuracy(evaluator, w, round_idx):
    """``SampledEvaluator.test_accuracy`` as it stood before the stacked
    forward, frozen as the oracle: one transient ``Client``, one
    ``set_params`` and one forward per sampled device."""
    weights = evaluator._test_weights
    t0 = time.perf_counter()
    picks = evaluator.sampler.sample(round_idx, evaluator.sample_size)
    values = {}
    for pick in picks:
        for cid in pick:
            cid = int(cid)
            if weights[cid] > 0:
                correct, total = evaluator.clients[cid].test_metrics(w)
                values[cid] = correct / total if total else 0.0
            else:
                values[cid] = 0.0
    value, halfwidth = _stratified_estimate(
        evaluator.sampler.strata, picks, values, weights
    )
    n_sampled = int(sum(len(p) for p in picks))
    if evaluator.telemetry.enabled:
        evaluator.telemetry.record_span(
            "eval:sampled_test_accuracy",
            time.perf_counter() - t0,
            mode="sampled",
            round_idx=round_idx,
            sample_size=n_sampled,
            ci_halfwidth=halfwidth,
        )
    return EvalEstimate(
        value=value,
        ci_halfwidth=halfwidth,
        sample_size=n_sampled,
        full=n_sampled >= evaluator._num_clients,
    )


def without_test_rows(dataset, client_ids):
    """A copy of ``dataset`` in which ``client_ids`` hold no held-out data."""
    clients = []
    for data in dataset:
        if data.client_id in client_ids:
            data = ClientData(
                data.client_id, data.train_x, data.train_y,
                data.test_x[:0], data.test_y[:0],
            )
        clients.append(data)
    return FederatedDataset(
        dataset.name, clients, dataset.num_classes, dataset.input_dim
    )


def make_evaluator(dataset, **kwargs):
    model = CountingLogReg(
        dim=dataset.input_dim, num_classes=dataset.num_classes
    )
    pool = ClientPool(dataset, model, SGDSolver(0.05, batch_size=10))
    return SampledEvaluator(
        pool, dataset.train_sizes, dataset.test_sizes, **kwargs
    )


def random_weights(model, seed):
    return 0.1 * np.random.default_rng(seed).standard_normal(
        len(model.get_params())
    )


class TestStackedSampledAccuracy:
    """One stacked forward per block ≡ the per-client loop, exactly."""

    N = 120

    @pytest.fixture(scope="class")
    def eager(self):
        return make_synthetic(1.0, 1.0, num_devices=self.N, seed=3, size_cap=200)

    @pytest.fixture(scope="class", params=["eager", "ondemand", "mmap"])
    def dataset(self, request, eager, tmp_path_factory):
        if request.param == "eager":
            return eager
        if request.param == "ondemand":
            return make_synthetic_ondemand(
                1.0, 1.0, num_devices=self.N, seed=3, size_cap=200,
                cache_clients=16,
            )
        directory = tmp_path_factory.mktemp("shards")
        MmapShardStore.pack(eager, directory, clients_per_shard=16)
        return FederatedDataset.from_store(
            eager.name,
            MmapShardStore(directory, max_open_shards=1),
            eager.num_classes,
            eager.input_dim,
        )

    @pytest.fixture(scope="class")
    def trained(self, dataset):
        """A few FedProx rounds, so accuracies are neither 0 nor 1."""
        with make_trainer(dataset, seed=0) as trainer:
            trainer.run(4)
            return trainer.w.copy()

    @pytest.mark.parametrize("strata", [1, 10])
    @pytest.mark.parametrize("sample_size", [10, 100, 500])
    def test_estimates_equal_the_loop(self, dataset, trained, strata, sample_size):
        for seed in range(3):
            evaluator = make_evaluator(
                dataset, sample_size=sample_size, num_strata=strata, seed=seed
            )
            w = trained + random_weights(evaluator.clients.model, seed)
            for round_idx in (0, 1, 17):
                stacked = evaluator.test_accuracy(w, round_idx)
                assert stacked == loop_test_accuracy(evaluator, w, round_idx)
                assert stacked.full == (sample_size >= self.N)
                if sample_size >= 100:
                    assert 0.05 < stacked.value < 0.95

    def test_one_forward_per_block_not_per_device(self, eager):
        evaluator = make_evaluator(eager, sample_size=100, num_strata=10)
        model = evaluator.clients.model
        w = random_weights(model, 0)
        evaluator.test_accuracy(w, 4)
        picks = np.concatenate(evaluator.sampler.sample(4, 100))
        rows = int(eager.test_sizes[picks].sum())
        assert model.predict_rows == [2048] * (rows // 2048) + [rows % 2048]
        model.predict_rows.clear()
        loop_test_accuracy(evaluator, w, 4)
        assert len(model.predict_rows) == 100

    def test_block_smaller_than_one_device(self, eager):
        evaluator = make_evaluator(eager, sample_size=40, num_strata=4, seed=2)
        model = evaluator.clients.model
        model.block_rows = 7
        assert min(eager.test_sizes) > 7
        w = random_weights(model, 1)
        stacked = evaluator.test_accuracy(w, 3)
        assert set(model.predict_rows[:-1]) == {7}
        assert stacked == loop_test_accuracy(evaluator, w, 3)

    def test_model_without_stacked_eval_takes_the_loop(self, eager):
        evaluator = make_evaluator(eager, sample_size=30, num_strata=3)
        model = evaluator.clients.model
        model.stacked = False
        w = random_weights(model, 2)
        estimate = evaluator.test_accuracy(w, 1)
        assert len(model.predict_rows) == 30
        assert estimate == loop_test_accuracy(evaluator, w, 1)

    def test_plain_client_list_takes_the_loop(self, eager):
        pooled = make_evaluator(eager, sample_size=30, num_strata=3)
        listed = SampledEvaluator(
            list(pooled.clients), eager.train_sizes, eager.test_sizes,
            sample_size=30, num_strata=3,
        )
        w = random_weights(pooled.clients.model, 3)
        assert listed.test_accuracy(w, 2) == pooled.test_accuracy(w, 2)

    def test_devices_without_test_rows(self, eager):
        empty = set(range(0, self.N, 3))
        dataset = without_test_rows(eager, empty)
        for strata, sample_size in ((1, 10), (10, 60), (10, 500)):
            evaluator = make_evaluator(
                dataset, sample_size=sample_size, num_strata=strata, seed=1
            )
            w = random_weights(evaluator.clients.model, 4)
            for round_idx in range(4):
                assert evaluator.test_accuracy(w, round_idx) == loop_test_accuracy(
                    evaluator, w, round_idx
                )

    def test_stratum_whose_sample_carries_no_weight(self, eager):
        # The whole smallest-by-train-size stratum has no held-out data.
        order = np.argsort(eager.train_sizes, kind="stable")
        dataset = without_test_rows(eager, set(order[: self.N // 4].tolist()))
        evaluator = make_evaluator(dataset, sample_size=12, num_strata=4, seed=5)
        picks = evaluator.sampler.sample(0, 12)
        assert dataset.test_sizes[picks[0]].sum() == 0
        w = random_weights(evaluator.clients.model, 5)
        assert evaluator.test_accuracy(w, 0) == loop_test_accuracy(evaluator, w, 0)

    def test_client_ids_that_are_not_positions(self, eager):
        """A re-ordered client list: results are keyed by position sampled,
        not by the id the ``ClientData`` happens to carry."""
        clients = list(eager)[::-1]
        assert clients[0].client_id == self.N - 1
        dataset = FederatedDataset(
            eager.name, clients, eager.num_classes, eager.input_dim
        )
        evaluator = make_evaluator(dataset, sample_size=30, num_strata=3, seed=4)
        w = random_weights(evaluator.clients.model, 8)
        for round_idx in range(3):
            estimate = evaluator.test_accuracy(w, round_idx)
            assert estimate.value > 0
            assert estimate == loop_test_accuracy(evaluator, w, round_idx)

    def test_lazy_store_sees_one_get_per_weighted_device(self):
        dataset = make_synthetic_ondemand(
            1.0, 1.0, num_devices=300, seed=1, size_cap=120, cache_clients=8
        )
        evaluator = make_evaluator(dataset, sample_size=50, num_strata=5)
        w = random_weights(evaluator.clients.model, 6)
        evaluator.test_accuracy(w, 2)
        stacked = dataset.store.cache_info()
        dataset.store._cache.clear()
        loop_test_accuracy(evaluator, w, 2)
        looped = dataset.store.cache_info()
        assert stacked["misses"] == 50
        assert looped["misses"] - stacked["misses"] == 50
        assert looped["hits"] == stacked["hits"] == 0

    def test_span_carries_the_same_fields(self, eager):
        spans = []
        for measure in (SampledEvaluator.test_accuracy, loop_test_accuracy):
            sink = InMemorySink()
            evaluator = make_evaluator(
                eager, sample_size=20, num_strata=5, telemetry=Telemetry([sink])
            )
            w = random_weights(evaluator.clients.model, 7)
            measure(evaluator, w, 9)
            (span,) = sink.spans("eval:sampled_test_accuracy")
            spans.append(
                {k: v for k, v in span.items() if k not in ("duration", "ts")}
            )
        assert spans[0] == spans[1]
        assert spans[0]["sample_size"] == 20 and spans[0]["mode"] == "sampled"
