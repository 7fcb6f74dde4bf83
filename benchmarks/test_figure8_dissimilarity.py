"""Figure 8 — the dissimilarity metric on five datasets (no stragglers).

Shape checks (paper): the gradient-variance metric is finite and positive
on every dataset, decreases over training on the convex workloads (the
model approaches a shared stationary region), and FedProx (best mu) keeps
it at or below the FedAvg level on the heterogeneous synthetic dataset.
"""

import numpy as np
from conftest import run_once, show

from repro.experiments import figure_cells, run_cells

# The convex subset is checked strictly; LSTM smoke runs are too short.
CONVEX = ("Synthetic(1,1)", "MNIST-like", "FEMNIST-like")


def test_figure8_dissimilarity(benchmark, scale):
    cells = [c for c in figure_cells("figure8", scale, seed=0) if c["panel"] in CONVEX]
    result = run_once(benchmark, lambda: run_cells(cells))
    show(result.render(metric="dissimilarity", charts=False))

    for panel in result.panels:
        for label, history in panel.histories.items():
            series = history.dissimilarities
            assert series, (panel.dataset, label)
            assert all(np.isfinite(v) and v >= 0 for v in series)

    # Convex runs: dissimilarity at the end below the start (both methods).
    for dataset in CONVEX:
        panel = result.panel(dataset)
        for label, history in panel.histories.items():
            series = history.dissimilarities
            assert series[-1] <= series[0] * 1.1, (dataset, label)

    # FedProx (best mu) keeps dissimilarity at/below FedAvg on Synthetic(1,1).
    het = result.panel("Synthetic(1,1)")
    mu0 = np.mean(het.histories["FedAvg (FedProx, mu=0)"].dissimilarities)
    best_label = next(l for l in het.histories if l != "FedAvg (FedProx, mu=0)")
    best = np.mean(het.histories[best_label].dissimilarities)
    assert best <= mu0 * 1.25
