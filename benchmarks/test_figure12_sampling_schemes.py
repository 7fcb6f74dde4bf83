"""Figure 12 — comparing the two device sampling schemes.

Shape checks (paper): both schemes train successfully at mu in {0, 1};
mu=1 is the more stable setting under either scheme on heterogeneous data
(fewer loss-increasing rounds); the two schemes land in a similar loss
band (neither catastrophically worse).
"""

import numpy as np
from conftest import run_once, show

from repro.experiments import figure_cells, run_cells


def test_figure12_sampling_schemes(benchmark, scale):
    result = run_once(benchmark, lambda: run_cells(figure_cells("figure12", scale, seed=0)))
    show(result.render(metric="loss", charts=False))

    for panel in result.panels:
        assert len(panel.histories) == 4
        for h in panel.histories.values():
            assert all(np.isfinite(h.train_losses))

    # On Synthetic(1,1): mu=1 at least as stable as mu=0 for each scheme.
    het = result.panel("Synthetic(1,1)")

    def increases(label):
        h = het.histories[label]
        return int((np.diff(h.train_losses) > 0).sum())

    for scheme in ("uniform sampling+weighted average", "weighted sampling+simple average"):
        assert increases(f"mu=1, {scheme}") <= increases(f"mu=0, {scheme}") + 2, scheme

    # The two schemes are in the same ballpark at mu=1.
    finals = [
        het.histories[f"mu=1, {scheme}"].final_train_loss()
        for scheme in (
            "uniform sampling+weighted average",
            "weighted sampling+simple average",
        )
    ]
    assert max(finals) <= min(finals) * 2.5
