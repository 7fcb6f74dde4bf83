"""Figure 5 — FedAvg is robust to device failure on IID data.

Shape check (paper): on Synthetic-IID, dropping even 90% of the selected
devices barely hurts FedAvg, and keeping partial work (FedProx mu=0) brings
no major improvement — the final losses across all straggler levels and
both methods stay within a modest band.
"""

import numpy as np
from conftest import run_once, show

from repro.experiments import figure_cells, run_cells


def test_figure5_iid_robustness(benchmark, scale):
    result = run_once(benchmark, lambda: run_cells(figure_cells("figure5", scale, seed=0)))
    show(result.render(metric="loss", charts=False))
    show(result.render(metric="accuracy", charts=False))

    assert [p.environment for p in result.panels] == [
        "0% stragglers",
        "10% stragglers",
        "50% stragglers",
        "90% stragglers",
    ]

    finals = {
        (p.environment, label): h.final_train_loss()
        for p in result.panels
        for label, h in p.histories.items()
    }
    values = np.array(list(finals.values()))
    # Robustness: the spread across all 8 runs is small.
    assert values.max() <= values.min() * 1.6, finals

    # And FedProx mu=0 brings no *major* improvement at 90% stragglers.
    p90 = result.panel("Synthetic-IID", "90% stragglers")
    fedavg = p90.histories["FedAvg"].final_train_loss()
    fedprox = p90.histories["FedProx (mu=0)"].final_train_loss()
    assert abs(fedavg - fedprox) <= 0.5 * max(fedavg, fedprox)
