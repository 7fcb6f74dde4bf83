"""The claims registry: the cheapest claims end to end, every other claim's
cells built, one run per ``(experiment, seed)``, and a failing claim's exit."""

import pytest

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
