"""The claims registry: the cheapest claims end to end, every other claim's
cells built, one run per ``(experiment, seed)``, and a failing claim's exit."""

import pytest

from repro.core.history import RoundRecord, TrainingHistory
from repro.experiments import CLAIMS, Claim, FigureResult, PanelResult, claim_cells, run_claims
from repro.experiments import claims as claims_module
from repro.experiments.__main__ import main
from repro.telemetry import RunArtifact
from repro.telemetry.replay import rebuild_trainer

CHEAPEST = ("table1", "figure5")


def test_the_cheapest_claims_hold_end_to_end(tmp_path, capsys):
    rows = run_claims(CHEAPEST, out=tmp_path)
    assert [(r["claim"], r["figure"], r["seed"], r["held"]) for r in rows] == [
        ("table1", "table1", 0, True), ("figure5", "figure5", 0, True),
    ]
    assert set(rows[1]["quantities"]) == {"max final", "min final", "FedAvg@90%", "mu=0@90%"}
    assert len(list((tmp_path / "figure5").glob("*.jsonl"))) == 8


@pytest.mark.parametrize("name", [name for name in CLAIMS if name not in CHEAPEST])
def test_every_other_claims_cells_build(name):
    cells = claim_cells(CLAIMS[name])
    assert cells
    for cell in cells:
        with rebuild_trainer(RunArtifact(path="", manifest=cell)) as trainer:
            assert trainer.label == cell["label"]


def test_each_experiment_and_seed_runs_once_and_claims_see_their_panels(monkeypatch):
    calls, seen = [], {}

    def run_cells(cells, out=None):
        calls.append({(c["seed"], c["panel"]) for c in cells})
        keys = dict.fromkeys((c["panel"], c["environment"]) for c in cells)
        return FigureResult("figure1", "", [PanelResult(*key, {}) for key in keys])

    def judge(name):
        def predicate(result, scale):
            seen[name] = {p.dataset for p in result.panels}
            return True, {}
        return predicate

    monkeypatch.setattr(claims_module, "run_cells", run_cells)
    monkeypatch.setattr(claims_module, "CLAIMS", {
        "whole": Claim("figure1", judge("whole")),
        "mnist": Claim("figure1", judge("mnist"), panels=("MNIST-like",)),
        "next seed": Claim("figure1", judge("next seed"), seed=1, panels=("MNIST-like",)),
    })
    rows = run_claims(seed=5)
    five = {"Synthetic(1,1)", "MNIST-like", "FEMNIST-like", "Shakespeare-like", "Sent140-like"}
    assert calls == [{(5, p) for p in five}, {(6, "MNIST-like")}]
    assert seen == {"whole": five, "mnist": {"MNIST-like"}, "next seed": {"MNIST-like"}}
    assert [(r["claim"], r["seed"]) for r in rows] == [("whole", 5), ("mnist", 5), ("next seed", 6)]


def test_a_failing_claim_exits_1_and_is_named(monkeypatch, capsys):
    monkeypatch.setattr(claims_module, "CLAIMS", {
        "table1": CLAIMS["table1"],
        "table1-upside-down": Claim("table1", lambda rows, scale: (False, {"rows": len(rows)})),
    })
    assert main(["claims", "--scale", "smoke"]) == 1
    out = capsys.readouterr().out
    assert "table1-upside-down  table1  0     NO    rows=4" in out
    assert out.rstrip().endswith("claims that did not hold: table1-upside-down")


def test_holding_claims_exit_0(monkeypatch, capsys):
    monkeypatch.setattr(claims_module, "CLAIMS", {"table1": CLAIMS["table1"]})
    assert main(["claims", "--seed", "2"]) == 0
    assert "table1  table1  2     yes" in capsys.readouterr().out


def _history(*losses):
    history = TrainingHistory()
    for round_idx, loss in enumerate(losses):
        history.append(RoundRecord(round_idx=round_idx, train_loss=loss))
    return history


def test_a_claim_over_panels_that_did_not_learn_is_marked(monkeypatch, capsys):
    """Each dataset whose compared panels all moved < 1 % is named beside
    a held claim, even when another dataset learned; the exit code is
    unchanged."""
    flat = FigureResult("figure1", "", [
        PanelResult("FEMNIST-like", "0% stragglers", {
            "FedAvg": _history(2.30, None, 2.29), "FedProx": _history(2.30, 2.285),
        }),
        PanelResult("Sent140-like", "", {"FedAvg": _history(0.70, 0.697)}),
    ])
    learning = FigureResult("figure2", "", [
        PanelResult("MNIST-like", "", {"FedAvg": _history(2.0, 1.5)}),
        PanelResult("Sent140-like", "", {"FedAvg": _history(0.70, 0.697)}),
    ])
    monkeypatch.setattr(
        claims_module, "run_cells",
        lambda cells, out=None: flat if cells[0]["figure"] == "figure1" else learning,
    )
    monkeypatch.setattr(claims_module, "CLAIMS", {
        "flat": Claim("figure1", lambda result, scale: (True, {})),
        "learning": Claim("figure2", lambda result, scale: (True, {})),
        "flat-failing": Claim("figure1", lambda result, scale: (False, {}), seed=1),
    })
    rows = run_claims()
    assert rows[0]["loss_drops"] == pytest.approx(
        {"FEMNIST-like 0% stragglers": 0.015 / 2.30, "Sent140-like": 0.003 / 0.70}
    )
    assert main(["claims"]) == 1
    lines = capsys.readouterr().out.splitlines()
    flat_row, learning_row, failing_row = (
        next(line for line in lines if line.startswith(name + " "))
        for name in ("flat", "learning", "flat-failing")
    )
    assert "yes (no learning: FEMNIST-like, Sent140-like) " in flat_row
    assert "FEMNIST-like 0% stragglers=0.7%, Sent140-like=0.4%" in flat_row
    assert "yes (no learning: Sent140-like) " in learning_row
    assert "MNIST-like=25.0%" in learning_row
    assert " NO " in failing_row and "no learning" not in failing_row


def test_a_dataset_with_one_learning_panel_is_not_named(monkeypatch):
    """A dataset is named only when all of its panels stayed flat; a claim
    whose datasets all learned reads a bare ``yes``."""
    result = FigureResult("figure1", "", [
        PanelResult("MNIST-like", "0% stragglers", {"FedAvg": _history(2.0, 2.05)}),
        PanelResult("MNIST-like", "90% stragglers", {"FedAvg": _history(2.0, 1.9)}),
        PanelResult("FEMNIST-like", "0% stragglers", {"FedAvg": _history(2.3, 2.0)}),
    ])
    monkeypatch.setattr(claims_module, "run_cells", lambda cells, out=None: result)
    monkeypatch.setattr(claims_module, "CLAIMS", {
        "mixed": Claim("figure1", lambda result, scale: (True, {})),
    })
    (row,) = run_claims()
    assert row["no_learning"] == []
    assert claims_module._held(row) == "yes"
    assert claims_module.no_learning(FigureResult("figure1", "", result.panels[:1])) == [
        "MNIST-like"
    ]
