"""Tests for the cell runner and the result containers it fills."""

import copy

import pytest

from repro.core import TrainingHistory
from repro.core.feddane import FedDaneTrainer
from repro.core.sampling import WeightedSamplingSimpleAverage
from repro.experiments import FigureResult, figure_cells, ledger_name, run_cells
from repro.telemetry import RunArtifact, load_run, verify_artifact
from repro.telemetry.replay import rebuild_trainer, replay_run


def _cells(figure_id, rounds=3, **keys):
    """The smoke cells of ``figure_id`` matching ``keys``, cut to ``rounds``."""
    cells = [
        dict(cell, rounds=rounds)
        for cell in figure_cells(figure_id, "smoke", seed=0)
        if all(cell[k] == v for k, v in keys.items())
    ]
    assert cells, keys
    return cells


def _built(cell):
    return rebuild_trainer(RunArtifact(path="<cell>", manifest=cell))


class TestRunCells:
    def test_one_history_per_cell_grouped_by_panel(self):
        cells = _cells("figure5")
        result = run_cells(cells)
        assert result.figure_id == "figure5"
        assert [p.environment for p in result.panels] == [
            "0% stragglers", "10% stragglers", "50% stragglers", "90% stragglers",
        ]
        for panel in result.panels:
            assert list(panel.histories) == ["FedAvg", "FedProx (mu=0)"]
            assert all(isinstance(h, TrainingHistory) for h in panel.histories.values())
            assert all(len(h) == 3 for h in panel.histories.values())

    def test_methods_in_a_panel_share_the_environment(self):
        (panel,) = run_cells(_cells("figure1", panel="Synthetic(1,1)", environment="50% stragglers")).panels
        first, *others = panel.histories.values()
        for other in others:
            for a, b in zip(first.records, other.records):
                assert a.selected == b.selected
                assert a.stragglers == b.stragglers

    def test_a_90_percent_cell_has_stragglers(self):
        cells = _cells("figure5", environment="90% stragglers", label="FedProx (mu=0)")
        (panel,) = run_cells(cells).panels
        assert any(r.stragglers for r in panel.histories["FedProx (mu=0)"].records)

    def test_dissimilarity_recorded_where_tracked(self):
        tracked = _cells("figure2", rounds=2, panel="Synthetic(1,1)")
        untracked = _cells("figure3", rounds=2, panel="Synthetic(1,1)")
        for history in run_cells(tracked).panels[0].histories.values():
            assert history.records[0].dissimilarity is not None
        for history in run_cells(untracked).panels[0].histories.values():
            assert all(r.dissimilarity is None for r in history.records)

    def test_two_cells_sharing_a_name_are_refused_before_running(self, tmp_path):
        (cell,) = _cells("figure8", panel="Synthetic(1,1)", label="FedProx (mu=1)")
        twin = dict(copy.deepcopy(cell), label="FedProx, mu=1")
        assert ledger_name(twin) == ledger_name(cell)
        with pytest.raises(ValueError) as raised:
            run_cells([cell, twin], out=tmp_path)
        assert "'FedProx (mu=1)'" in str(raised.value)
        assert "'FedProx, mu=1'" in str(raised.value)
        assert not (tmp_path / "figure8").exists()

    def test_one_panel_line_per_label(self):
        cell = _cells("figure5", environment="0% stragglers", label="FedAvg")[0]
        with pytest.raises(ValueError, match="share"):
            run_cells([cell, dict(cell, seed=1)])

    def test_cells_of_one_figure_only(self):
        with pytest.raises(ValueError, match="one figure"):
            run_cells(_cells("figure5")[:1] + _cells("figure2")[:1])


class TestCellOptionsReachTheTrainer:
    def test_feddane_gradient_clients(self):
        (cell,) = _cells("figure4-bottom", panel="Synthetic(1,1)", label="mu=0, c=10, FedDane")
        trainer = _built(cell)
        assert isinstance(trainer, FedDaneTrainer)
        assert trainer.gradient_clients == 10

    def test_adaptive_mu(self):
        (cell,) = _cells("figure3", panel="Synthetic-IID", label="FedProx, dynamic mu")
        trainer = _built(cell)
        assert trainer.mu_controller is not None
        assert trainer.mu == 1.0

    def test_weighted_sampling(self):
        (cell,) = _cells(
            "figure12", panel="Synthetic(1,1)", label="mu=1, weighted sampling+simple average"
        )
        trainer = _built(cell)
        assert isinstance(trainer.sampling, WeightedSamplingSimpleAverage)
        assert trainer.mu == 1.0

    def test_e1(self):
        for cell in _cells("figure9", panel="Synthetic(1,1)"):
            assert _built(cell).epochs == 1.0

    def test_label_and_seed_from_the_cell(self):
        (cell,) = _cells("figure5", environment="90% stragglers", label="FedAvg")
        trainer = _built(dict(cell, seed=4))
        assert trainer.label == "FedAvg"
        assert trainer.seed == 4
        assert trainer.drop_stragglers


class TestLedgers:
    def test_one_verified_replayable_ledger_per_cell(self, tmp_path):
        cells = _cells("figure4-top", panel="Synthetic(1,1)")
        result = run_cells(cells, out=tmp_path)
        paths = sorted((tmp_path / "figure4-top").glob("*.jsonl"))
        assert [p.stem for p in paths] == sorted(ledger_name(c) for c in cells)
        for cell in cells:
            artifact = load_run(str(tmp_path / "figure4-top" / f"{ledger_name(cell)}.jsonl"))
            assert verify_artifact(artifact) == []
            assert artifact.run_id == ledger_name(cell)
            assert replay_run(artifact).matches
            # The ledger's own manifest rebuilds the cell's history.
            with rebuild_trainer(artifact) as trainer:
                again = trainer.run(cell["rounds"])
            recorded = result.panel("Synthetic(1,1)").histories[cell["label"]]
            assert again.records == recorded.records

    def test_names_carry_every_grouping_key(self):
        (cell,) = _cells("figure1", panel="Synthetic(1,1)", environment="90% stragglers",
                         label="FedProx (mu=1)")
        assert ledger_name(cell) == "figure1__Synthetic_1_1__90_stragglers__FedProx_mu=1__seed0"


class TestResultContainers:
    @pytest.fixture(scope="class")
    def fig(self):
        cells = _cells("figure5", environment="0% stragglers")
        return run_cells(cells)

    def test_panel_lookup(self, fig):
        panel = fig.panel("Synthetic-IID")
        assert panel.environment == "0% stragglers"
        with pytest.raises(KeyError):
            fig.panel("nope")

    def test_series_accessors(self, fig):
        panel = fig.panels[0]
        assert set(panel.loss_series()) == {"FedAvg", "FedProx (mu=0)"}
        assert len(panel.loss_series()["FedAvg"]) == 3
        assert len(panel.accuracy_series()["FedProx (mu=0)"]) == 3

    def test_render_contains_methods(self, fig):
        text = fig.render(metric="loss", charts=False)
        assert "FedAvg" in text and "FedProx (mu=0)" in text
        assert "figure5" in text

    def test_render_accuracy_metric(self, fig):
        text = fig.render(metric="accuracy", charts=True)
        assert "(test accuracy)" in text
        assert "(training loss)" not in text
        table = text.split("Synthetic-IID [0% stragglers]\nmethod")[1]
        rows = [line.split("  ")[0] for line in table.splitlines()[2:]]
        assert rows == ["FedAvg", "FedProx (mu=0)"]

    def test_render_rejects_unknown_metric(self, fig):
        with pytest.raises(ValueError):
            fig.render(metric="wat")

    def test_empty_figure_renders_its_header(self):
        assert FigureResult("figX", "d").render() == "== figX: d =="
