"""Experiment harness: the paper's figures as cells, plus Table 1.

See DESIGN.md §5 for the experiment index and :data:`FIGURES` for the
figure ids :func:`figure_cells` knows.
"""

from .configs import (
    DEFAULT,
    PAPER,
    SCALES,
    SMOKE,
    ExperimentScale,
    Workload,
    FIGURE1_BEST_MU,
    figure1_workloads,
    get_scale,
    synthetic_suite_workloads,
)
from .figures import (
    FIGURES,
    figure7_accuracy_rows,
    figure7_improvement,
    figure_cells,
    ledger_name,
    run_cells,
)
from .results import FigureResult, PanelResult
from .sweeps import LR_GRID, SweepResult, tune_learning_rate, tune_mu
from .table1 import PAPER_TABLE1, render_table1, run_table1

__all__ = [
    "ExperimentScale",
    "Workload",
    "SCALES",
    "SMOKE",
    "DEFAULT",
    "PAPER",
    "get_scale",
    "figure1_workloads",
    "synthetic_suite_workloads",
    "FIGURE1_BEST_MU",
    "FIGURES",
    "figure_cells",
    "run_cells",
    "ledger_name",
    "tune_learning_rate",
    "tune_mu",
    "SweepResult",
    "LR_GRID",
    "FigureResult",
    "PanelResult",
    "run_table1",
    "render_table1",
    "PAPER_TABLE1",
    "figure7_accuracy_rows",
    "figure7_improvement",
]
