"""Integration tests: telemetry threaded through the federated trainer.

Covers the PR's acceptance criteria end to end:

* a 10-client FedProx run with a :class:`JSONLSink` yields a manifest
  header plus per-round span/metric events whose phase durations tile the
  round span to within 5%;
* the event schema is executor-agnostic — serial, parallel and cohort
  runs emit the same trainer-level span/metric structure (executors add
  their own extras: ``solve:client`` payload spans, ``worker_pid``
  attributes, ``cohort:*`` kernel splits);
* the default (:data:`NULL_TELEMETRY`) leaves training histories
  bit-identical to an instrumented run;
* ``close()``/``__exit__`` are idempotent and flush/close sinks exactly
  once;
* callbacks and telemetry interleave correctly — a round's events are
  visible to ``on_round_end``, early stopping still records the
  final-evaluation event, and per-round event counts match the history
  length for every executor.
"""

from __future__ import annotations

import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.core.callbacks import Callback
from repro.datasets import make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import CohortExecutor, ParallelExecutor, SerialExecutor
from repro.systems import FractionStragglers
from repro.telemetry import (
    NULL_TELEMETRY,
    InMemorySink,
    JSONLSink,
    Telemetry,
    canonical_record,
    read_jsonl,
)

from tests.conftest import EachRound

ROUNDS = 5

#: Span names the trainer emits each round regardless of executor.
PHASES = (
    "phase:select",
    "phase:local_solve",
    "phase:aggregate",
    "phase:evaluate",
)


@pytest.fixture(scope="module")
def dataset():
    """The acceptance setting: a 10-device Synthetic(1, 1) federation."""
    return make_synthetic(1.0, 1.0, num_devices=10, seed=0, size_cap=80)


def make_trainer(dataset, telemetry=None, executor=None, **overrides):
    kwargs = dict(
        dataset=dataset,
        model=MultinomialLogisticRegression(dim=60, num_classes=10),
        solver=SGDSolver(0.01, batch_size=10),
        mu=1.0,
        clients_per_round=10,
        epochs=2,
        systems=FractionStragglers(0.5, seed=3),
        track_gamma=True,
        seed=1,
        engine=executor,
        telemetry=telemetry,
        label="telemetry-test",
    )
    kwargs.update(overrides)
    return FederatedTrainer(**kwargs)


def run_instrumented(dataset, executor=None, rounds=ROUNDS, **overrides):
    sink = InMemorySink()
    trainer = make_trainer(
        dataset, telemetry=Telemetry([sink]), executor=executor, **overrides
    )
    try:
        history = trainer.run(rounds)
    finally:
        trainer.close()
    return history, sink


class TestRoundEventStream:
    def test_manifest_emitted_once_with_trainer_config(self, dataset):
        _, sink = run_instrumented(dataset)
        [manifest] = sink.of_type("manifest")
        assert sink.events[0] is manifest  # header precedes all events
        assert manifest["label"] == "telemetry-test"
        assert manifest["seed"] == 1
        assert manifest["executor"] == "serial"
        config = manifest["trainer_config"]
        assert config["optimization"]["mu"] == 1.0
        assert config["optimization"]["epochs"] == 2
        assert config["cohorting"]["clients_per_round"] == 10
        assert manifest["recipe"]["num_devices"] == 10
        assert manifest["recipe"]["solver"]["type"] == "SGDSolver"
        assert "config" not in manifest  # no second, lossy summary

    def test_every_round_has_span_and_phases(self, dataset):
        history, sink = run_instrumented(dataset)
        assert sink.rounds() == list(range(ROUNDS)) == [
            r.round_idx for r in history.records
        ]
        for round_idx in range(ROUNDS):
            for phase in PHASES:
                spans = [
                    e for e in sink.spans(phase) if e["round"] == round_idx
                ]
                assert len(spans) == 1, (phase, round_idx)

    def test_phase_durations_tile_round_span(self, dataset):
        _, sink = run_instrumented(dataset)
        for round_span in sink.spans("round"):
            round_idx = round_span["round"]
            phase_total = sum(
                e["duration"]
                for name in PHASES
                for e in sink.spans(name)
                if e["round"] == round_idx
            )
            gap = abs(round_span["duration"] - phase_total)
            assert gap <= 0.05 * round_span["duration"], (
                f"round {round_idx}: phases sum to {phase_total:.6f}s vs "
                f"round span {round_span['duration']:.6f}s"
            )

    def test_solve_client_spans_cover_cohorts(self, dataset):
        _, sink = run_instrumented(dataset)
        for round_idx in range(ROUNDS):
            solve_spans = [
                e for e in sink.spans("solve:client")
                if e["round"] == round_idx
            ]
            [phase] = [
                e for e in sink.spans("phase:local_solve")
                if e["round"] == round_idx
            ]
            assert len(solve_spans) == phase["clients"] == 10
            for e in solve_spans:
                assert 0 <= e["client_id"] < 10
                assert e["duration"] > 0
                assert e["epochs"] > 0

    def test_fedprox_diagnostics_each_round(self, dataset):
        _, sink = run_instrumented(dataset)
        for name in ("fedprox.client_drift", "fedprox.prox_term",
                     "fedprox.gamma"):
            events = sink.metrics(name)
            assert [e["round"] for e in events] == list(range(ROUNDS)), name
            assert all(e["kind"] == "histogram" for e in events)
            assert all(e["count"] > 0 for e in events)
        events = sink.metrics("fedprox.budget_utilization")
        assert [e["round"] for e in events] == list(range(ROUNDS))
        assert all(e["kind"] == "gauge" for e in events)
        # FractionStragglers(0.5): utilization strictly below full budget
        assert all(0 < e["value"] <= 1.0 for e in events)
        # What the record states is not restated as a metric.
        for name in ("train_loss", "test_accuracy", "mu", "rounds_total"):
            assert not sink.metrics(name), name

    def test_records_stream_one_round_behind(self, dataset):
        history, sink = run_instrumented(dataset)
        records = sink.of_type("round_record")
        assert [e["record"] for e in records] == [
            canonical_record(r) for r in history.records
        ]
        # Round r's record is written once round r + 1 is queued: after
        # that round's span, before the next one's.
        position = {id(e): i for i, e in enumerate(sink.events)}
        round_spans = sink.spans("round")
        for r, event in enumerate(records[:-1]):
            assert position[id(round_spans[r + 1])] < position[id(event)]
            if r + 2 < ROUNDS:
                assert position[id(event)] < position[id(round_spans[r + 2])]

    def test_dissimilarity_metrics_when_tracked(self, dataset):
        history, sink = run_instrumented(dataset, track_dissimilarity=True)
        assert all(r.dissimilarity >= 0 for r in history.records)
        events = sink.metrics("fedprox.b_value")
        assert [e["round"] for e in events] == list(range(ROUNDS))
        assert all(e["value"] >= 1.0 for e in events)
        assert not sink.metrics("fedprox.gradient_variance")  # the record's


class TestJSONLArtifact:
    def test_full_run_artifact_round_trip(self, dataset, tmp_path):
        path = tmp_path / "run.jsonl"
        trainer = make_trainer(
            dataset, telemetry=Telemetry([JSONLSink(str(path))])
        )
        with trainer:
            history = trainer.run(ROUNDS)
        events = read_jsonl(str(path))
        assert events[0]["type"] == "manifest"
        round_spans = [
            e for e in events
            if e["type"] == "span" and e["name"] == "round"
        ]
        assert [e["round"] for e in round_spans] == list(range(ROUNDS))
        assert len(history) == ROUNDS
        # every line deserialized to a flat dict with a type discriminator
        assert all(
            e["type"] in ("manifest", "span", "metric", "round_record",
                          "run_footer")
            for e in events
        )
        # schema 2: one canonical record per round, then the sealing footer
        records = [e for e in events if e["type"] == "round_record"]
        assert [e["round"] for e in records] == list(range(ROUNDS))
        assert events[-1]["type"] == "run_footer"
        assert events[-1]["rounds"] == ROUNDS


class TestExecutorParity:
    @staticmethod
    def trainer_level(sink):
        """The executor-agnostic view: trainer spans + metric structure."""
        spans = [
            (e["name"], e["round"])
            for e in sink.spans()
            if e["name"] == "round" or e["name"].startswith("phase:")
        ]
        metrics = [
            (e["name"], e["kind"], e["round"])
            for e in sink.metrics()
            if not e["name"].startswith("cohort.")
        ]
        return spans, metrics

    def test_serial_vs_cohort_same_schema_and_history(self, dataset):
        h_serial, s_serial = run_instrumented(dataset)
        h_cohort, s_cohort = run_instrumented(dataset,
                                              executor=CohortExecutor())
        assert self.trainer_level(s_serial) == self.trainer_level(s_cohort)
        for r1, r2 in zip(h_serial.records, h_cohort.records):
            assert r1.train_loss == pytest.approx(r2.train_loss, abs=1e-12)
        # cohort adds its stacked-kernel phase splits each round
        for name in ("cohort:plan", "cohort:pack", "cohort:kernel",
                     "cohort:finalize"):
            assert [e["round"] for e in s_cohort.spans(name)] == list(
                range(ROUNDS)
            ), name
            assert not s_serial.spans(name)
        # ...and its per-round packing-efficiency gauge
        gauges = s_cohort.metrics("cohort.pack_efficiency")
        assert [e["round"] for e in gauges] == list(range(ROUNDS))
        assert all(0.0 < e["value"] <= 1.0 for e in gauges)
        assert not s_serial.metrics("cohort.pack_efficiency")

    @pytest.mark.slow
    def test_parallel_same_schema_and_history(self, dataset):
        h_serial, s_serial = run_instrumented(dataset)
        executor = ParallelExecutor(n_workers=2)
        h_parallel, s_parallel = run_instrumented(dataset, executor=executor)
        assert self.trainer_level(s_serial) == self.trainer_level(s_parallel)
        for r1, r2 in zip(h_serial.records, h_parallel.records):
            assert r1.train_loss == r2.train_loss
            assert r1.test_accuracy == r2.test_accuracy
        # worker-side payload spans crossed the process boundary
        solve_spans = s_parallel.spans("solve:client")
        assert len(solve_spans) == 10 * ROUNDS
        assert all("worker_pid" in e for e in solve_spans)


class TestNullDefaultIsInert:
    def test_histories_bit_identical_with_and_without(self, dataset):
        plain = make_trainer(dataset)  # default: NULL_TELEMETRY
        assert plain.telemetry is NULL_TELEMETRY
        try:
            h_plain = plain.run(ROUNDS)
        finally:
            plain.close()
        h_instrumented, _ = run_instrumented(dataset)
        for r1, r2 in zip(h_plain.records, h_instrumented.records):
            assert r1.train_loss == r2.train_loss  # exact, not approx
            assert r1.test_accuracy == r2.test_accuracy
            assert r1.selected == r2.selected
            assert r1.stragglers == r2.stragglers
            assert r1.gamma_mean == r2.gamma_mean

    def test_updates_skip_timing_payloads_when_disabled(self, dataset):
        from repro.core.client import ClientPool
        from repro.runtime.executor import LocalTask, solve_with_timings

        pool = ClientPool(dataset,
                          MultinomialLogisticRegression(dim=60, num_classes=10),
                          SGDSolver(0.01, batch_size=10))
        w = pool.model.get_params()
        task = LocalTask(client_id=0, w_global=w, mu=1.0, epochs=1,
                         rng_entropy=(1, 0, 0, 0))
        assert task.collect_timings is False  # the default costs nothing
        update = solve_with_timings(pool, task)
        assert update.timings is None


class TestIdempotentClose:
    def test_close_twice_flushes_once(self, dataset):
        sink = InMemorySink()
        trainer = make_trainer(dataset, telemetry=Telemetry([sink]))
        trainer.run(1)
        trainer.close()
        trainer.close()
        trainer.close()
        assert sink.close_count == 1

    def test_exit_then_close_is_safe(self, dataset):
        sink = InMemorySink()
        with make_trainer(dataset, telemetry=Telemetry([sink])) as trainer:
            trainer.run(1)
        trainer.close()  # after __exit__ already closed
        assert sink.close_count == 1

    def test_trainer_without_telemetry_closes_fine(self, dataset):
        trainer = make_trainer(dataset)
        trainer.run(1)
        trainer.close()
        trainer.close()


class TestCallbacksInterleaving:
    def test_round_events_visible_in_on_round_end(self, dataset):
        sink = InMemorySink()
        seen = []

        def check(record):
            # the finished round's span is already in the sink
            seen.append(record.round_idx in sink.rounds())
            return False

        trainer = make_trainer(
            dataset,
            telemetry=Telemetry([sink]),
            callbacks=[EachRound(check)],
        )
        try:
            trainer.run(3)
        finally:
            trainer.close()
        assert seen == [True, True, True]

    def test_early_stop_records_final_evaluation(self, dataset):
        sink = InMemorySink()
        stop_at = 2  # stop mid-schedule so eval_every=3 skipped the round
        trainer = make_trainer(
            dataset,
            telemetry=Telemetry([sink]),
            evaluation=EvalConfig(every=3),
            callbacks=[EachRound(lambda r: r.round_idx == stop_at)],
        )
        try:
            history = trainer.run(ROUNDS)
        finally:
            trainer.close()
        assert len(history) == stop_at + 1
        assert history.records[-1].test_accuracy is not None
        [fill_in] = sink.spans("phase:final_evaluate")
        assert fill_in["round"] == stop_at
        # the last record is written once, after the fill-in, evaluated
        last = sink.of_type("round_record")[-1]
        assert sink.events.index(fill_in) < sink.events.index(last)
        assert last["round"] == stop_at
        assert last["record"]["test_accuracy"] == history.records[-1].test_accuracy
        assert not sink.metrics("test_accuracy")

    def test_on_train_end_fires_before_flush(self, dataset):
        sink = InMemorySink()
        flushes_at_train_end = []

        class Probe(Callback):
            def on_round_end(self, record):
                return False

            def on_train_end(self, history):
                flushes_at_train_end.append(sink.flush_count)

        trainer = make_trainer(
            dataset, telemetry=Telemetry([sink]), callbacks=[Probe()]
        )
        try:
            trainer.run(2)
        finally:
            trainer.close()
        assert flushes_at_train_end == [0]  # hook ran, sinks not yet flushed
        assert sink.flush_count >= 1  # run() flushed right after

    @pytest.mark.parametrize("executor_factory", [
        lambda: None,
        CohortExecutor,
        pytest.param(
            lambda: ParallelExecutor(n_workers=2),
            marks=pytest.mark.slow,
        ),
    ])
    def test_round_counts_match_history(self, dataset, executor_factory):
        history, sink = run_instrumented(
            dataset, executor=executor_factory(), rounds=4
        )
        assert sink.rounds() == [r.round_idx for r in history.records]
        assert len(sink.rounds()) == len(history)
