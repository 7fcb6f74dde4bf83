"""Experiment harness: the paper's figures and ablations as cells, Table 1,
and the paper's checks as claims over them.

See DESIGN.md §5 for the experiment index, :data:`FIGURES` for the ids
:func:`figure_cells` knows and :data:`CLAIMS` for the claims
:func:`run_claims` judges.
"""

from .. import _lazy

_lazy.attach(globals(), {
    ".configs": (
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
    ),
    ".figures": (
        "FIGURES",
        "figure_cells",
        "run_cells",
        "ledger_name",
        "sweep_cells",
        "figure7_accuracy_rows",
        "figure7_improvement",
    ),
    ".claims": ("CLAIMS", "Claim", "claim_cells", "run_claims", "render_claims"),
    ".results": ("FigureResult", "PanelResult"),
    ".table1": ("run_table1", "render_table1", "PAPER_TABLE1"),
})
