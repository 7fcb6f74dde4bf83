"""Tests for the `python -m repro.experiments` command-line interface."""

import pytest

from repro.experiments import figure_cells, ledger_name
from repro.experiments.__main__ import main
from repro.telemetry import load_run, verify_artifact
from repro.trace import main as trace_main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "table1" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_table1_smoke(self, capsys):
        assert main(["table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 (reproduced" in out
        assert "MNIST-like" in out

    def test_table1_only_prints(self, tmp_path, capsys):
        assert main(["table1", "--scale", "smoke", "--out", str(tmp_path)]) == 0
        assert "MNIST-like" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_figure5_smoke_writes_one_verified_ledger_per_cell(self, tmp_path, capsys):
        assert main(
            ["figure5", "--scale", "smoke", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "figure5" in out
        ledgers = sorted((tmp_path / "figure5").glob("*.jsonl"))
        assert [p.stem for p in ledgers] == sorted(
            ledger_name(cell) for cell in figure_cells("figure5", "smoke")
        )
        assert len(ledgers) == 8  # 4 straggler levels x 2 methods
        for path in ledgers:
            assert verify_artifact(load_run(str(path))) == []
            assert trace_main(["replay", str(path)]) == 0
        assert capsys.readouterr().out.count("MATCH") == 8

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["figure99"])

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--scale", "giant"])

    def test_seed_flag(self, capsys):
        assert main(["table1", "--scale", "smoke", "--seed", "3"]) == 0
