"""Experiment harness: the paper's figures and ablations as cells, Table 1,
and the paper's checks as claims over them.

See DESIGN.md §5 for the experiment index, :data:`FIGURES` for the ids
:func:`figure_cells` knows and :data:`CLAIMS` for the claims
:func:`run_claims` judges.
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
from .claims import CLAIMS, Claim, claim_cells, render_claims, run_claims
from .figures import (
    FIGURES,
    figure7_accuracy_rows,
    figure7_improvement,
    figure_cells,
    ledger_name,
    run_cells,
    sweep_cells,
)
from .results import FigureResult, PanelResult
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
    "sweep_cells",
    "CLAIMS",
    "Claim",
    "claim_cells",
    "run_claims",
    "render_claims",
    "FigureResult",
    "PanelResult",
    "run_table1",
    "render_table1",
    "PAPER_TABLE1",
    "figure7_accuracy_rows",
    "figure7_improvement",
]
