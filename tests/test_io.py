"""Tests for persistence of models, histories and checkpoints."""

import numpy as np
import pytest

from repro.core.history import RoundRecord, TrainingHistory
from repro.io import (
    history_from_dict,
    history_to_dict,
    load_checkpoint,
    load_history,
    load_model_params,
    save_checkpoint,
    save_history,
    save_model_params,
)
from repro.models import MultinomialLogisticRegression


def _history(n=3):
    h = TrainingHistory(label="run")
    for i in range(n):
        h.append(
            RoundRecord(
                round_idx=i,
                train_loss=1.0 / (i + 1),
                test_accuracy=0.5 + 0.1 * i if i % 2 == 0 else None,
                dissimilarity=float(i) if i > 0 else None,
                mu=0.1 * i,
                selected=[0, i],
                stragglers=[i] if i == 1 else [],
                dropped=[],
            )
        )
    return h


class TestModelParams:
    def test_roundtrip(self, tmp_path):
        model = MultinomialLogisticRegression(dim=4, num_classes=3)
        model.set_params(np.arange(float(model.n_params)))
        path = save_model_params(tmp_path / "model", model)
        assert path.suffix == ".npz"

        fresh = MultinomialLogisticRegression(dim=4, num_classes=3)
        load_model_params(path, fresh)
        np.testing.assert_array_equal(fresh.get_params(), model.get_params())

    def test_explicit_npz_suffix(self, tmp_path):
        model = MultinomialLogisticRegression(dim=2, num_classes=2)
        path = save_model_params(tmp_path / "m.npz", model)
        assert path.name == "m.npz"
        assert path.exists()

    def test_wrong_architecture_rejected(self, tmp_path):
        model = MultinomialLogisticRegression(dim=4, num_classes=3)
        path = save_model_params(tmp_path / "model", model)
        other = MultinomialLogisticRegression(dim=5, num_classes=3)
        with pytest.raises(ValueError):
            load_model_params(path, other)

    def test_creates_parent_dirs(self, tmp_path):
        model = MultinomialLogisticRegression(dim=2, num_classes=2)
        path = save_model_params(tmp_path / "a" / "b" / "model", model)
        assert path.exists()


class TestHistory:
    def test_dict_roundtrip(self):
        h = _history()
        restored = history_from_dict(history_to_dict(h))
        assert restored.label == "run"
        assert restored.train_losses == h.train_losses
        assert restored.mus == h.mus
        assert [r.test_accuracy for r in restored.records] == [
            r.test_accuracy for r in h.records
        ]
        assert restored.records[1].stragglers == [1]

    def test_file_roundtrip(self, tmp_path):
        h = _history(5)
        path = save_history(tmp_path / "h.json", h)
        restored = load_history(path)
        assert restored.train_losses == h.train_losses
        assert len(restored) == 5

    def test_json_is_plain_text(self, tmp_path):
        path = save_history(tmp_path / "h.json", _history())
        content = path.read_text()
        assert '"train_loss"' in content

    def test_none_fields_preserved(self, tmp_path):
        path = save_history(tmp_path / "h.json", _history())
        restored = load_history(path)
        assert restored.records[1].test_accuracy is None
        assert restored.records[0].dissimilarity is None


    def test_every_field_roundtrips_as_the_ledger_record(self, tmp_path):
        """A history file holds the ledger's canonical dicts, losslessly."""
        from repro.telemetry.ledger import canonical_record

        h = _history(2)
        h.records[1] = RoundRecord(
            round_idx=1, train_loss=0.123456789012345678, test_accuracy=0.5,
            dissimilarity=2.5, mu=0.3, train_loss_ci=0.01, accuracy_ci=0.02,
            eval_sample_size=7, eval_full=True, gamma_mean=0.4, gamma_max=0.9,
            selected=[np.int64(3), 1], stragglers=[1], dropped=[3], degraded=True,
        )
        payload = history_to_dict(h)
        assert payload["records"] == [canonical_record(r) for r in h.records]
        restored = load_history(save_history(tmp_path / "h.json", h))
        assert restored.records == [
            RoundRecord(**canonical_record(r)) for r in h.records
        ]
        assert history_to_dict(restored) == payload

    def test_fields_a_file_lacks_take_the_record_defaults(self):
        restored = history_from_dict(
            {"records": [{"round_idx": 0, "train_loss": None}]}
        )
        assert restored.records == [RoundRecord(round_idx=0, train_loss=None)]
        assert restored.records[0].mu == 0.0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = MultinomialLogisticRegression(dim=3, num_classes=2)
        model.set_params(np.ones(model.n_params) * 2.0)
        h = _history()
        save_checkpoint(tmp_path / "ckpt", model, h)

        fresh = MultinomialLogisticRegression(dim=3, num_classes=2)
        restored = load_checkpoint(tmp_path / "ckpt", fresh)
        np.testing.assert_array_equal(fresh.get_params(), model.get_params())
        assert restored.train_losses == h.train_losses

    def test_resume_training_from_checkpoint(self, tmp_path, toy_dataset):
        """A trainer restarted from a checkpoint continues from the saved w."""
        from repro.core import make_fedprox

        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        trainer = make_fedprox(
            toy_dataset, model, 0.1, mu=0.0, clients_per_round=3, seed=0
        )
        history = trainer.run(4)
        save_checkpoint(tmp_path / "ckpt", model, history)

        fresh = MultinomialLogisticRegression(dim=6, num_classes=3)
        load_checkpoint(tmp_path / "ckpt", fresh)
        resumed = make_fedprox(
            toy_dataset, fresh, 0.1, mu=0.0, clients_per_round=3, seed=0
        )
        np.testing.assert_array_equal(resumed.w, trainer.w)
        more = resumed.run(2)
        assert len(more) == 2
