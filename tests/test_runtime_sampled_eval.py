"""Stratified sampled evaluation: determinism, CIs, trainer integration."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer, TrainerConfig
from repro.datasets import make_synthetic, make_synthetic_ondemand
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import StratifiedClientSampler
from repro.telemetry import InMemorySink, Telemetry


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
