"""Appendix C.2's tuning protocols as cells: one key varied, the best by
final training loss."""

import numpy as np
import pytest

from repro.experiments import figure_cells, run_cells, sweep_cells
from repro.experiments.configs import MU_GRID

LR = "recipe.solver.learning_rate"
MU = "trainer_config.optimization.mu"


def _fedavg(rounds, environment="0% stragglers", label="FedAvg"):
    """A smoke Synthetic-IID line of Figure 5, at E = 1 (the lr protocol)."""
    (cell,) = [
        c for c in figure_cells("figure5", "smoke")
        if (c["environment"], c["label"]) == (environment, label)
    ]
    cell = {**cell, "rounds": rounds}
    cell["trainer_config"]["optimization"]["epochs"] = 1
    return cell


def _sweep(cell, key, grid):
    (panel,) = run_cells(sweep_cells(cell, key, grid)).panels
    return panel


class TestSweepCells:
    def test_one_cell_per_value_differing_only_in_key_and_label(self):
        base = _fedavg(5)
        cells = sweep_cells(base, LR, (0.001, 0.1))
        assert [c["label"] for c in cells] == ["learning_rate=0.001", "learning_rate=0.1"]
        assert [c["recipe"]["solver"]["learning_rate"] for c in cells] == [0.001, 0.1]
        for cell in cells:
            assert {**cell, "label": base["label"], "recipe": base["recipe"]} == base
        assert base["recipe"]["solver"]["learning_rate"] == 0.01  # the base is not touched

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep_cells(_fedavg(5), LR, ())


class TestLearningRateSweep:
    def test_sweep_covers_grid(self):
        panel = _sweep(_fedavg(5), LR, (0.001, 0.1))
        assert set(panel.histories) == {"learning_rate=0.001", "learning_rate=0.1"}
        assert panel.best() in panel.histories

    def test_best_has_lowest_final_loss(self):
        panel = _sweep(_fedavg(8), LR, (0.0001, 0.01, 0.1))
        losses = {label: h.final_train_loss() for label, h in panel.histories.items()}
        assert losses[panel.best()] == min(losses.values())

    def test_reasonable_rate_beats_tiny_rate(self):
        assert _sweep(_fedavg(10), LR, (1e-6, 0.05)).best() == "learning_rate=0.05"

    def test_deterministic(self):
        a, b = (_sweep(_fedavg(4), LR, (0.01, 0.1)) for _ in range(2))
        assert [h.records for h in a.histories.values()] == [
            h.records for h in b.histories.values()
        ]
        assert a.best() == b.best()


class TestMuSweep:
    def test_the_papers_grid(self):
        cells = sweep_cells(_fedavg(4, label="FedProx (mu=0)"), MU, MU_GRID)
        assert [c["trainer_config"]["optimization"]["mu"] for c in cells] == list(MU_GRID)
        assert [c["label"] for c in cells] == ["mu=0.001", "mu=0.01", "mu=0.1", "mu=1"]

    def test_runs_under_stragglers(self):
        cell = _fedavg(5, "90% stragglers", "FedProx (mu=0)")
        panel = _sweep(cell, MU, (0.001, 1.0))
        assert panel.best() in ("mu=0.001", "mu=1")
        assert all(np.isfinite(h.final_train_loss()) for h in panel.histories.values())
