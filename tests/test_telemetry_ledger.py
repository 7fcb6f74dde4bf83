"""Run-ledger tests: canonical records, digests, artifacts, crash safety.

Covers the schema-2 ledger layer in isolation — canonicalization and
digest chaining (:mod:`repro.telemetry.ledger`), the hardened JSONL sink
(atomic finalize, per-round flush, truncation-tolerant reads), the
console sink's final-round/footer guarantees, and end-to-end artifact
verification on real trainer runs (tamper and truncation detection).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.server import FederatedTrainer
from repro.optim import SGDSolver
from repro.telemetry import (
    DIGEST_ALGORITHM,
    ConsoleSink,
    HistoryDigest,
    JSONLSink,
    Telemetry,
    canonical_json,
    canonical_record,
    environment_info,
    history_digest,
    load_run,
    load_runs,
    read_jsonl,
    run_footer_event,
    verify_artifact,
)
from repro.telemetry.ledger import RECORD_FIELDS

import io


def run_with_ledger(dataset, path, rounds=3, run_id="test", **kwargs):
    """Record a small run into a JSONL ledger at ``path``."""
    from repro.models import MultinomialLogisticRegression

    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    solver = SGDSolver(learning_rate=0.05, batch_size=8)
    telemetry = Telemetry([JSONLSink(str(path))], run_id=run_id)
    options = dict(
        clients_per_round=3, mu=0.1, epochs=1, seed=5, telemetry=telemetry
    )
    options.update(kwargs)
    trainer = FederatedTrainer(dataset, model, solver, **options)
    try:
        history = trainer.run(rounds)
    finally:
        trainer.close()
    return history


class TestCanonicalRecords:
    def test_round_trip_types(self):
        record = {
            "round_idx": 2,
            "train_loss": 1.5,
            "test_accuracy": None,
            "selected": (3, 1),
            "stragglers": [],
            "dropped": [7],
            "eval_full": 1,
            "degraded": 0,
            "mu": 0,
        }
        canon = canonical_record(record)
        assert canon["round_idx"] == 2
        assert isinstance(canon["train_loss"], float)
        assert canon["test_accuracy"] is None
        assert canon["selected"] == [3, 1]
        assert canon["dropped"] == [7]
        assert canon["eval_full"] is True
        assert canon["degraded"] is False
        assert isinstance(canon["mu"], float)
        assert set(canon) == set(RECORD_FIELDS)

    def test_record_fields_are_the_round_record_fields(self):
        """A field added to RoundRecord can never silently escape the digest."""
        import dataclasses

        from repro.core.history import RoundRecord

        names = [f.name for f in dataclasses.fields(RoundRecord)]
        assert sorted(RECORD_FIELDS) == sorted(names)
        assert len(set(RECORD_FIELDS)) == len(RECORD_FIELDS)

    def test_canonical_json_is_key_sorted_and_compact(self):
        blob = canonical_json({"b": 1, "a": [1.5, None]})
        assert blob == '{"a":[1.5,null],"b":1}'

    def test_digest_chains_and_orders(self):
        records = [
            {"round_idx": i, "train_loss": 1.0 / (i + 1), "selected": [i]}
            for i in range(3)
        ]
        full = history_digest(records)
        # Incremental chaining agrees with the one-shot helper.
        digest = HistoryDigest()
        for r in records:
            digest.update(r)
        assert digest.hexdigest() == full
        assert digest.rounds == 3
        assert digest.algorithm == DIGEST_ALGORITHM
        # Order and content sensitivity.
        assert history_digest(records[::-1]) != full
        tampered = [dict(r) for r in records]
        tampered[1]["train_loss"] += 1e-15
        assert history_digest(tampered) != full

    def test_environment_info_fields(self):
        info = environment_info()
        for key in ("package_version", "python", "numpy", "platform"):
            assert key in info


class TestJSONLSinkHardening:
    def test_atomic_finalize(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JSONLSink(str(path))
        assert sink.write_path == str(path) + ".part"
        sink.emit({"type": "manifest", "run_id": "x"})
        assert os.path.exists(sink.write_path)
        assert not path.exists()
        sink.close()
        assert path.exists()
        assert not os.path.exists(sink.write_path)
        assert read_jsonl(str(path))[0]["run_id"] == "x"

    def test_unclosed_sink_leaves_part_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JSONLSink(str(path))
        sink.emit({"type": "manifest", "run_id": "x"})
        sink._fh.flush()
        # A crashed writer never finalizes: the target never appears.
        assert not path.exists()
        assert os.path.exists(str(path) + ".part")

    def test_append_mode_is_not_atomic(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        for run_id in ("a", "b"):
            sink = JSONLSink(str(path), append=True)
            assert sink.write_path == str(path)
            sink.emit({"type": "manifest", "run_id": run_id})
            sink.close()
        assert [e["run_id"] for e in read_jsonl(str(path))] == ["a", "b"]

    def test_append_plus_atomic_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="atomic"):
            JSONLSink(str(tmp_path / "x.jsonl"), append=True, atomic=True)

    def test_flush_per_round_boundary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JSONLSink(str(path))
        sink.emit({"type": "metric", "name": "loss", "value": 1.0})
        sink.emit({"type": "round_record", "round": 0, "record": {}})
        # Boundary event forces a flush: both lines are on disk mid-run.
        with open(sink.write_path) as fh:
            assert len(fh.readlines()) == 2
        sink.close()

    def test_read_jsonl_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a":1}\n{"b":2}\n{"trunc')
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            events = read_jsonl(str(path))
        assert events == [{"a": 1}, {"b": 2}]
        with pytest.raises(ValueError):
            read_jsonl(str(path), strict=True)

    def test_read_jsonl_rejects_mid_stream_garbage(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a":1}\nnot json\n{"b":2}\n')
        with pytest.raises(ValueError):
            read_jsonl(str(path))


class TestConsoleSinkFooter:
    def test_final_round_flushes_before_footer(self):
        out = io.StringIO()
        sink = ConsoleSink(min_interval=1000.0, stream=out)
        sink.emit(
            {
                "type": "metric",
                "kind": "gauge",
                "name": "train_loss",
                "round": 0,
                "value": 2.0,
            }
        )
        # Throttled: round 1 would normally be suppressed (every=10)...
        sink.emit(
            {
                "type": "metric",
                "kind": "gauge",
                "name": "train_loss",
                "round": 1,
                "value": 1.5,
            }
        )
        sink.emit(run_footer_event("r", 2, 0.5, "ab" * 32, DIGEST_ALGORITHM))
        text = out.getvalue()
        # ...but the footer forces the last suppressed round out first.
        assert "round 1" in text.replace("=", " ") or "1.5" in text
        assert "finished" in text
        assert "ab" * 6 in text  # digest prefix

    def test_close_flushes_pending(self):
        out = io.StringIO()
        sink = ConsoleSink(min_interval=1000.0, stream=out)
        sink.emit(
            {
                "type": "metric",
                "kind": "gauge",
                "name": "train_loss",
                "round": 3,
                "value": 1.25,
            }
        )
        sink.emit(
            {
                "type": "metric",
                "kind": "gauge",
                "name": "train_loss",
                "round": 4,
                "value": 1.125,
            }
        )
        sink.close()
        assert "1.125" in out.getvalue()


class TestRunArtifacts:
    def test_clean_run_verifies(self, tmp_path, synthetic_small):
        path = tmp_path / "run.jsonl"
        history = run_with_ledger(synthetic_small, path, rounds=3)
        artifact = load_run(str(path))
        assert artifact.schema >= 2
        assert verify_artifact(artifact) == []
        assert artifact.rounds == [0, 1, 2]
        assert artifact.recorded_digest() == artifact.computed_digest()
        # Ledger records equal the returned history, canonically.
        for rec, live in zip(artifact.history_records(), history.records):
            assert rec == canonical_record(live)
        footer = artifact.footer
        assert footer["rounds"] == 3
        assert footer["algorithm"] == DIGEST_ALGORITHM
        assert footer["final_train_loss"] == history.records[-1].train_loss

    def test_manifest_carries_ledger_sections(self, tmp_path, synthetic_small):
        path = tmp_path / "run.jsonl"
        run_with_ledger(synthetic_small, path, rounds=1)
        manifest = load_run(str(path)).manifest
        assert manifest["schema"] == 2
        config = manifest["trainer_config"]
        assert config["optimization"]["mu"] == 0.1
        assert config["seed"] == 5
        recipe = manifest["recipe"]
        assert recipe["trainer"] == "FederatedTrainer"
        assert recipe["dataset"]["builder"] == "make_synthetic"
        assert recipe["model"]["type"] == "MultinomialLogisticRegression"
        assert recipe["solver"]["type"] == "SGDSolver"
        assert "python" in manifest["environment"]

    def test_tamper_detection(self, tmp_path, synthetic_small):
        path = tmp_path / "run.jsonl"
        run_with_ledger(synthetic_small, path, rounds=2)
        events = read_jsonl(str(path))
        for event in events:
            if event["type"] == "round_record" and event["round"] == 1:
                event["record"]["test_accuracy"] = 0.999
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )
        issues = verify_artifact(load_run(str(path)))
        assert any("digest mismatch" in issue for issue in issues)

    def test_truncation_detection(self, tmp_path, synthetic_small):
        path = tmp_path / "run.jsonl"
        run_with_ledger(synthetic_small, path, rounds=2)
        events = read_jsonl(str(path))
        assert events[-1]["type"] == "run_footer"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events[:-1])
        )
        issues = verify_artifact(load_run(str(path)))
        assert any("truncated" in issue for issue in issues)

    def test_in_flight_ledger_holds_every_round_but_the_newest(
        self, tmp_path, synthetic_small
    ):
        """Records stream one round behind: a ledger read mid-run — sink
        flushed, never closed — is short only of its footer and replays."""
        from repro.models import MultinomialLogisticRegression
        from repro.telemetry.replay import replay_run

        rounds = 4
        sink = JSONLSink(str(tmp_path / "run.jsonl"))
        trainer = FederatedTrainer(
            synthetic_small,
            MultinomialLogisticRegression(
                dim=synthetic_small.input_dim,
                num_classes=synthetic_small.num_classes,
                seed=1,
            ),
            SGDSolver(learning_rate=0.05, batch_size=8),
            clients_per_round=3, mu=0.1, epochs=1, seed=5,
            telemetry=Telemetry([sink], run_id="in-flight"),
        )
        try:
            live = [trainer.run_round() for _ in range(rounds)]
            sink.flush()
            artifact = load_run(sink.write_path)
            assert artifact.rounds == list(range(rounds - 1))
            assert artifact.history_records() == [
                canonical_record(r) for r in live[:-1]
            ]
            [issue] = verify_artifact(artifact)
            assert "no run_footer" in issue
            report = replay_run(sink.write_path, num_rounds=rounds - 1)
            assert report.matches, report.describe()
            assert report.rounds_compared == rounds - 1
        finally:
            trainer.close()
        assert load_run(str(tmp_path / "run.jsonl")).rounds == list(range(rounds))

    def test_multi_run_split(self, tmp_path, synthetic_small):
        path = tmp_path / "runs.jsonl"
        from repro.models import MultinomialLogisticRegression

        for run_id in ("first", "second"):
            model = MultinomialLogisticRegression(
                dim=synthetic_small.input_dim,
                num_classes=synthetic_small.num_classes,
                seed=1,
            )
            telemetry = Telemetry(
                [JSONLSink(str(path), append=True)], run_id=run_id
            )
            trainer = FederatedTrainer(
                synthetic_small,
                model,
                SGDSolver(learning_rate=0.05, batch_size=8),
                clients_per_round=3,
                epochs=1,
                seed=5,
                telemetry=telemetry,
                label=run_id,
            )
            try:
                trainer.run(2)
            finally:
                trainer.close()
        runs = load_runs(str(path))
        assert [a.run_id for a in runs] == ["first", "second"]
        for artifact in runs:
            assert verify_artifact(artifact) == []
        # Identical configs and seeds: both runs share one digest.
        assert (
            runs[0].recorded_digest() == runs[1].recorded_digest()
        )
        with pytest.raises(IndexError):
            load_run(str(path), run=2)

