"""Figure 2 — effect of statistical heterogeneity on convergence.

Top row: training loss on the four synthetic datasets (IID -> (1,1)).
Bottom row: gradient-variance dissimilarity of the same runs.

Shape checks (paper):
* the dissimilarity metric grows with the heterogeneity knobs (alpha, beta)
  — the bottom row's level increases left to right;
* on the most heterogeneous dataset, mu=1 achieves mean dissimilarity no
  worse than mu=0 (the proximal term tames local drift).
"""

import numpy as np
from conftest import run_once, show

from repro.experiments import figure_cells, run_cells

ORDER = ["Synthetic-IID", "Synthetic(0,0)", "Synthetic(0.5,0.5)", "Synthetic(1,1)"]


def test_figure2_statistical_heterogeneity(benchmark, scale):
    result = run_once(benchmark, lambda: run_cells(figure_cells("figure2", scale, seed=0)))
    show(result.render(metric="loss", charts=False))
    show(result.render(metric="dissimilarity", charts=False))

    assert [p.dataset for p in result.panels] == ORDER

    # Dissimilarity level increases with heterogeneity (mu=0 line).
    levels = []
    for panel in result.panels:
        h = panel.histories["FedAvg (FedProx, mu=0)"]
        levels.append(float(np.mean(h.dissimilarities)))
    assert levels[0] < levels[-1], levels  # IID << Synthetic(1,1)
    assert levels[1] < levels[-1] * 1.5, levels

    # On Synthetic(1,1): the proximal term keeps dissimilarity in check.
    het = result.panel("Synthetic(1,1)")
    mu0 = np.mean(het.histories["FedAvg (FedProx, mu=0)"].dissimilarities)
    mu1_label = next(l for l in het.histories if "mu=1" in l)
    mu1 = np.mean(het.histories[mu1_label].dissimilarities)
    assert mu1 <= mu0 * 1.25

    # All runs stay finite on every dataset.
    for panel in result.panels:
        for h in panel.histories.values():
            assert all(np.isfinite(h.train_losses))
