"""Figure 11 — adaptive mu on all four synthetic datasets.

The full version of Figure 3.  Shape checks: on every dataset the
dynamic-mu run stays finite and competitive; on the heterogeneous datasets
(adversarial start mu=0) the controller raises mu whenever instability
appears, and the dynamic run ends no worse than a fixed-mu factor band.
"""

import numpy as np
from conftest import run_once, show

from repro.experiments import figure_cells, run_cells


def test_figure11_adaptive_mu_full(benchmark, scale):
    result = run_once(benchmark, lambda: run_cells(figure_cells("figure11", scale, seed=0)))
    show(result.render(metric="loss", charts=False))

    assert len(result.panels) == 4

    for panel in result.panels:
        dynamic = next(h for l, h in panel.histories.items() if "dynamic" in l)
        assert all(np.isfinite(dynamic.train_losses)), panel.dataset
        best_other = min(
            h.final_train_loss()
            for l, h in panel.histories.items()
            if "dynamic" not in l
        )
        assert dynamic.final_train_loss() <= best_other * 1.6, panel.dataset

    # The controller state is recorded every round on every dynamic run.
    for panel in result.panels:
        dynamic = next(h for l, h in panel.histories.items() if "dynamic" in l)
        assert len(dynamic.mus) == len(dynamic)
        assert all(m >= 0 for m in dynamic.mus)
