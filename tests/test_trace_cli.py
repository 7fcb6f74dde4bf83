"""CLI tests for ``python -m repro.trace`` and the analysis toolkit.

Each subcommand is exercised in-process through :func:`repro.trace.main`
against freshly recorded ledgers (and the module entry point once, as a
subprocess); exit codes are the contract CI relies on (0 =
verified/identical, 1 = divergence or ledger issues).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

from repro.core.server import FederatedTrainer
from repro.datasets import make_synthetic
from repro.faults import ChaosFaults
from repro.models import MultinomialLogisticRegression
from repro.optim import BatchSchedule, SGDSolver
from repro.systems.stragglers import FractionStragglers
from repro.telemetry import JSONLSink, Telemetry, read_jsonl
from repro.telemetry.analysis import (
    check_runs,
    phase_breakdown,
    summarize_run,
    tiling_issues,
    timeline,
)
from repro.telemetry.ledger import load_run, load_runs, verify_artifact
from repro.trace import main


def record(path, executor="serial", label="run", rounds=3, seed=5, **kwargs):
    dataset = make_synthetic(1.0, 1.0, num_devices=10, seed=0, size_cap=100)
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    telemetry = Telemetry([JSONLSink(str(path))], run_id=label)
    options = dict(
        clients_per_round=4,
        mu=0.5,
        epochs=1,
        seed=seed,
        engine=executor,
        telemetry=telemetry,
        label=label,
        systems=FractionStragglers(0.5, seed=3),
    )
    options.update(kwargs)
    trainer = FederatedTrainer(
        dataset, model, SGDSolver(learning_rate=0.05, batch_size=8), **options
    )
    try:
        trainer.run(rounds)
    finally:
        trainer.close()


@pytest.fixture
def run_path(tmp_path):
    path = tmp_path / "run.jsonl"
    record(path)
    return path


class TestSummarize:
    def test_clean_run_exits_zero(self, run_path, capsys):
        assert main(["summarize", str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "ledger: verified" in out
        assert "digest:" in out
        assert "phase:local_solve" in out

    def test_tampered_run_exits_one(self, run_path, capsys):
        events = read_jsonl(str(run_path))
        for event in events:
            if event["type"] == "round_record":
                event["record"]["train_loss"] = 0.0
        run_path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["summarize", str(run_path)]) == 1
        assert "LEDGER ISSUES" in capsys.readouterr().out

    def test_analysis_helpers(self, run_path):
        artifact = load_run(str(run_path))
        summary = summarize_run(artifact)
        assert summary["rounds"] == 3
        assert summary["issues"] == []
        phases = phase_breakdown(artifact)
        assert phases["round"]["count"] == 3
        assert {"p50", "p95", "p99"} <= set(phases["round"])
        assert tiling_issues(artifact) == []

    def test_simulated_spans_are_not_summed_as_seconds(self, tmp_path, capsys):
        path = tmp_path / "async.jsonl"
        record(path, rounds=4, engine="async:window=2,arrivals=seeded")
        summary = summarize_run(load_run(str(path)))
        assert "async:checkin" not in summary["phases"]
        assert summary["simulated_phases"]["rounds"]["async:checkin"]["count"] > 0
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        seconds, _, simulated = out.partition("  simulated spans (rounds):")
        assert "async:checkin" in simulated and "async:checkin" not in seconds
        assert "phase:local_solve" in seconds.partition("  spans (seconds):")[2]

    def test_work_line_without_a_clock(self, run_path, capsys):
        work = summarize_run(load_run(str(run_path)))["work"]
        assert work["solves"] == 12 and "simulated" not in work
        assert main(["summarize", str(run_path)]) == 0
        out = capsys.readouterr().out
        assert f"work: solves=12 epochs={work['epochs']:.4f}" in out
        assert "simulated:" not in out

    @pytest.mark.parametrize("engine", ["serial", "async:window=2"])
    def test_work_line_states_the_mini_batch_steps(self, tmp_path, capsys, engine):
        """Each ``solve:client`` span states its steps: their sum is the sum
        of the solves' batch schedules, and ``work:`` prints µs per step."""
        path = tmp_path / "run.jsonl"
        record(path, rounds=4, engine=engine)
        artifact = load_run(str(path))
        dataset = make_synthetic(1.0, 1.0, num_devices=10, seed=0, size_cap=100)
        solves = [s for s in artifact.spans if s["name"] == "solve:client"]
        want = sum(
            BatchSchedule(dataset[s["client_id"]].num_train, 8, s["epochs"]).total
            for s in solves
        )
        work = summarize_run(artifact)["work"]
        assert work["steps"] == want == sum(s["steps"] for s in solves)
        seconds = sum(s["duration"] for s in solves)
        assert work["us_per_step"] == pytest.approx(1e6 * seconds / want)
        assert main(["summarize", str(path)]) == 0
        assert (
            f"steps={want} ({work['us_per_step']:.1f} us/step)"
            in capsys.readouterr().out
        )

    def test_fault_totals_come_from_the_events(self, tmp_path, capsys):
        path = tmp_path / "faults.jsonl"
        record(path, rounds=4, faults=ChaosFaults(0.5, seed=3))
        totals = summarize_run(load_run(str(path)))["faults"]
        assert totals["injected"] > 0
        assert main(["summarize", str(path)]) == 0
        assert f"faults: injected={totals['injected']}" in capsys.readouterr().out

    def test_fault_free_run_prints_no_fault_line(self, run_path, capsys):
        assert not any(summarize_run(load_run(str(run_path)))["faults"].values())
        assert main(["summarize", str(run_path)]) == 0
        assert "faults:" not in capsys.readouterr().out


class TestTimeline:
    def test_renders_one_row_per_round(self, run_path, capsys):
        assert main(["timeline", str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "r0000" in out and "r0002" in out
        assert "legend:" in out

    def test_rows_carry_metrics(self, run_path):
        text = timeline(load_run(str(run_path)))
        assert "loss=" in text
        assert "k=4" in text


class TestDiff:
    def test_serial_vs_cohort_pair_identical(self, tmp_path, capsys):
        a, b = tmp_path / "serial.jsonl", tmp_path / "cohort.jsonl"
        record(a, executor="serial", label="pair-serial")
        record(b, executor="cohort", label="pair-cohort")
        assert main(["diff", str(a), str(b), "--tol", "1e-9"]) == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_different_seeds_diverge(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        record(a, seed=5, label="a")
        record(b, seed=6, label="b")
        assert main(["diff", str(a), str(b)]) == 1
        assert "DIVERGES" in capsys.readouterr().out


class TestReplayCommand:
    def test_replay_matches(self, run_path, capsys):
        assert main(["replay", str(run_path)]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_module_entry_point_replays_from_the_file_alone(self, run_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "repro.trace", "replay", str(run_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "MATCH" in done.stdout

    def test_replay_flags_tamper(self, run_path, capsys):
        events = read_jsonl(str(run_path))
        for event in events:
            if event["type"] == "round_record" and event["round"] == 2:
                event["record"]["mu"] = 99.0
        run_path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["replay", str(run_path)]) == 1
        out = capsys.readouterr().out
        assert "first divergence: round 2" in out


class TestCheckCommand:
    def test_check_passes_clean_artifact(self, run_path, capsys):
        assert main(["check", str(run_path)]) == 0
        assert "CHECK OK" in capsys.readouterr().out

    def test_check_reports_truncation(self, run_path, capsys):
        events = read_jsonl(str(run_path))
        run_path.write_text(
            "".join(json.dumps(e) + "\n" for e in events[:-1])
        )
        report = check_runs(load_runs(str(run_path)))
        assert not report.ok
        assert any("truncated" in issue for issue in report.issues)


class TestSchemaV1Refused:
    """Schema 2 is the only readable schema; a v1 file is refused by name."""

    @pytest.fixture
    def v1_path(self, tmp_path):
        events = [
            {"type": "manifest", "schema": 1, "run_id": "old", "label": "x"},
            {"type": "span", "name": "round", "round": 0, "duration": 0.1},
            {
                "type": "metric",
                "kind": "gauge",
                "name": "train_loss",
                "round": 0,
                "value": 2.0,
            },
        ]
        path = tmp_path / "v1.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        return path

    @pytest.mark.parametrize("command", ["verify_artifact", "diff", "replay"])
    def test_refused_with_labeled_issue(self, v1_path, run_path, capsys, command):
        if command == "verify_artifact":
            refusal = "\n".join(verify_artifact(load_run(str(v1_path))))
        else:
            argv = [command, str(v1_path)]
            if command == "diff":
                argv.append(str(run_path))
            assert main(argv) == 1
            refusal = capsys.readouterr().err
        assert "unsupported schema version 1 (supported: 2)" in refusal
