"""Structure tests for every figure's cells and for Table 1.

These check that each figure lists the right panels, lines and options
(generation only, nothing trains) — the *shape* checks of the actual
results are the claims of ``repro.experiments.claims``.
"""

import json

import pytest

from repro.experiments import (
    FIGURES,
    PAPER_TABLE1,
    SMOKE,
    figure1_workloads,
    figure7_accuracy_rows,
    figure7_improvement,
    figure_cells,
    ledger_name,
    run_cells,
    run_table1,
    synthetic_suite_workloads,
)
from repro.metrics.convergence import accuracy_at_outcome

FIGURE_IDS = [
    "figure1",
    "figure2",
    "figure3",
    "figure4-top",
    "figure4-bottom",
    "figure5",
    "figure8",
    "figure9",
    "figure11",
    "figure12",
]
ABLATION_IDS = [
    "ablation-mu-grid",
    "ablation-local-epochs",
    "ablation-gamma",
    "ablation-partial-work",
    "ablation-solvers",
    "ablation-remark8",
]
SYNTHETIC = ["Synthetic-IID", "Synthetic(0,0)", "Synthetic(0.5,0.5)", "Synthetic(1,1)"]
FIVE = ["Synthetic(1,1)", "MNIST-like", "FEMNIST-like", "Shakespeare-like", "Sent140-like"]


def _grid(figure_id):
    """``(panel, environment) -> [labels]`` in cell order."""
    grid = {}
    for cell in figure_cells(figure_id):
        grid.setdefault((cell["panel"], cell["environment"]), []).append(cell["label"])
    return grid


def _panels(figure_id):
    return list(dict.fromkeys(cell["panel"] for cell in figure_cells(figure_id)))


class TestFigureIds:
    def test_every_paper_figure_listed_in_order(self):
        assert list(FIGURES) == FIGURE_IDS + ABLATION_IDS

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError, match="figure99"):
            figure_cells("figure99")

    def test_entries_have_descriptions(self):
        assert all(f.summary and f.title for f in FIGURES.values())

    @pytest.mark.parametrize("scale", ["smoke", "default", "paper"])
    def test_cells_are_json_with_unique_ledger_names(self, scale):
        for figure_id in FIGURE_IDS + ABLATION_IDS:
            cells = figure_cells(figure_id, scale, seed=0)
            names = [ledger_name(cell) for cell in cells]
            assert len(set(names)) == len(names), figure_id
            for cell in cells:
                assert json.loads(json.dumps(cell)) == cell
                assert set(cell) == {
                    "figure", "panel", "environment", "rounds",
                    "label", "seed", "trainer_config", "recipe",
                }

    def test_smoke_cell_count(self):
        assert sum(len(figure_cells(f)) for f in FIGURE_IDS) == 182

    def test_seed_reaches_every_draw(self):
        (cell,) = [
            c for c in figure_cells("figure1", seed=7)
            if c["panel"] == "MNIST-like" and c["environment"] == "90% stragglers"
            and c["label"] == "FedAvg"
        ]
        assert cell["seed"] == 7
        assert cell["recipe"]["dataset"]["seed"] == 7
        assert cell["trainer_config"]["cohorting"]["systems"]["seed"] == 7

    def test_workload_names_are_their_datasets_names(self):
        workloads = {**figure1_workloads(SMOKE), **synthetic_suite_workloads(SMOKE)}
        for name, workload in workloads.items():
            assert workload.dataset.name == name


class TestTable1:
    def test_four_rows_in_paper_order(self):
        rows = run_table1("smoke")
        assert [r["Dataset"] for r in rows] == [
            "MNIST-like",
            "FEMNIST-like",
            "Shakespeare-like",
            "Sent140-like",
        ]

    def test_row_schema_matches_paper_table(self):
        rows = run_table1("smoke")
        assert set(rows[0]) == set(PAPER_TABLE1[0])

    def test_smoke_scale_counts(self):
        rows = run_table1("smoke")
        mnist = rows[0]
        assert mnist["Devices"] == 30
        assert mnist["Samples"] == 900


class TestFigure1Family:
    def test_panel_grid(self):
        grid = _grid("figure1")
        assert list(grid) == [
            (name, f"{level}% stragglers") for name in FIVE for level in (0, 50, 90)
        ]

    def test_three_methods_per_panel(self):
        grid = _grid("figure1")
        assert grid[("Shakespeare-like", "0% stragglers")] == [
            "FedAvg", "FedProx (mu=0)", "FedProx (mu=0.001)",
        ]
        assert all(len(labels) == 3 and labels[0] == "FedAvg" for labels in grid.values())

    def test_only_fedavg_drops_stragglers(self):
        for cell in figure_cells("figure1"):
            drops = cell["trainer_config"]["optimization"].get("drop_stragglers", False)
            assert drops == (cell["label"] == "FedAvg")

    def test_figure9_is_figure1_with_e1(self):
        figure1, figure9 = figure_cells("figure1"), figure_cells("figure9")
        assert [ledger_name(c)[7:] for c in figure1] == [ledger_name(c)[7:] for c in figure9]
        assert {c["trainer_config"]["optimization"]["epochs"] for c in figure9} == {1.0}
        assert {c["trainer_config"]["optimization"]["epochs"] for c in figure1} == {SMOKE.epochs}

    @pytest.fixture(scope="class")
    def result(self):
        cells = [
            c for c in figure_cells("figure1")
            if c["panel"] == "Synthetic(1,1)" and c["environment"] != "50% stragglers"
        ]
        return run_cells(cells)

    def test_figure7_rows(self, result):
        rows = figure7_accuracy_rows(result)
        assert len(rows) == 2
        assert all("FedAvg" in row for row in rows)

    def test_figure7_improvement_computes(self, result):
        value = figure7_improvement(result, level="90% stragglers")
        assert -1.0 <= value <= 1.0

    def test_figure7_improvement_missing_level(self, result):
        with pytest.raises(ValueError):
            figure7_improvement(result, level="33% stragglers")

    def test_figure7_pairs_each_evaluated_loss_with_its_own_accuracy(self):
        cells = [
            {**c, "rounds": 5} for c in figure_cells("figure1")
            if c["panel"] == "Synthetic(1,1)" and c["environment"] == "90% stragglers"
        ]
        for cell in cells:
            cell["trainer_config"]["evaluation"]["train_every"] = 2
        result = run_cells(cells)
        history = result.panels[0].histories["FedAvg"]
        assert [r.train_loss is None for r in history.records] == [False, True, False, True, False]
        (row,) = figure7_accuracy_rows(result)
        evaluated = [r for r in history.records if r.train_loss is not None]
        assert row["FedAvg"] == accuracy_at_outcome(
            [r.train_loss for r in evaluated], [r.test_accuracy for r in evaluated]
        )
        assert -1.0 <= figure7_improvement(result) <= 1.0


class TestFigure2Family:
    def test_figure2_panels_track_dissimilarity(self):
        assert _panels("figure2") == SYNTHETIC
        for cell in figure_cells("figure2"):
            assert cell["trainer_config"]["diagnostics"]["track_dissimilarity"]
        assert _grid("figure2")[("Synthetic(1,1)", "")] == [
            "FedAvg (FedProx, mu=0)", "FedProx, mu=1",
        ]

    def test_figure8_uses_each_datasets_best_mu(self):
        assert _panels("figure8") == FIVE
        grid = _grid("figure8")
        assert grid[("Synthetic(1,1)", "")] == ["FedAvg (FedProx, mu=0)", "FedProx (mu=1)"]
        assert grid[("Sent140-like", "")] == ["FedAvg (FedProx, mu=0)", "FedProx (mu=0.01)"]


class TestFigure3Family:
    def test_figure3_methods(self):
        assert _panels("figure3") == ["Synthetic-IID", "Synthetic(1,1)"]
        labels = _grid("figure3")[("Synthetic(1,1)", "")]
        assert labels == ["FedAvg (FedProx, mu=0)", "FedProx, dynamic mu", "FedProx, mu=1"]

    def test_adversarial_start(self):
        starts = {
            c["panel"]: c["trainer_config"]["optimization"]["mu_controller"]["initial_mu"]
            for c in figure_cells("figure11") if "dynamic" in c["label"]
        }
        assert starts == {
            "Synthetic-IID": 1.0,
            "Synthetic(0,0)": 0.0,
            "Synthetic(0.5,0.5)": 0.0,
            "Synthetic(1,1)": 0.0,
        }

    def test_figure11_covers_all_synthetic(self):
        assert _panels("figure11") == SYNTHETIC


class TestFigure4Family:
    def test_top_methods(self):
        assert _grid("figure4-top")[("Synthetic(1,1)", "")] == [
            "mu=0, FedProx",
            "mu=1, FedProx",
            "mu=0, FedDane",
            "mu=1, FedDane",
        ]

    def test_bottom_gradient_client_sweep(self):
        cells = [c for c in figure_cells("figure4-bottom") if c["panel"] == "Synthetic(1,1)"]
        assert [c["label"] for c in cells] == [
            "mu=0, FedProx",
            "mu=0, c=5, FedDane",
            "mu=0, c=10, FedDane",
            "mu=0, c=12, FedDane",
        ]
        assert [c["recipe"].get("gradient_clients") for c in cells] == [None, 5, 10, 12]


class TestFigure5And12:
    def test_figure5_levels(self):
        grid = _grid("figure5")
        assert list(grid) == [
            ("Synthetic-IID", f"{level}% stragglers") for level in (0, 10, 50, 90)
        ]
        assert all(labels == ["FedAvg", "FedProx (mu=0)"] for labels in grid.values())

    def test_figure12_scheme_grid(self):
        cells = [c for c in figure_cells("figure12") if c["panel"] == "Synthetic(1,1)"]
        assert len(cells) == 4  # 2 schemes x 2 mus
        schemes = [c["trainer_config"]["cohorting"]["sampling"]["type"] for c in cells]
        assert schemes == ["UniformSamplingWeightedAverage"] * 2 + [
            "WeightedSamplingSimpleAverage"
        ] * 2
