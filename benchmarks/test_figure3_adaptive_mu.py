"""Figure 3 — adaptive mu from adversarial initialization.

Shape checks (paper): the dynamic-mu run works well despite starting from
an adversarial mu (1 on IID data, 0 on heterogeneous data) — its final loss
is competitive with the best line on each panel, and the controller moves
mu in the sensible direction (down on IID, up on heterogeneous when the
loss fluctuates).
"""

from conftest import run_once, show

from repro.experiments import figure_cells, run_cells


def test_figure3_adaptive_mu(benchmark, scale):
    result = run_once(benchmark, lambda: run_cells(figure_cells("figure3", scale, seed=0)))
    show(result.render(metric="loss", charts=False))

    assert [p.dataset for p in result.panels] == [
        "Synthetic-IID",
        "Synthetic(1,1)",
    ]

    for panel in result.panels:
        dynamic = next(
            h for l, h in panel.histories.items() if "dynamic" in l
        )
        best_other = min(
            h.final_train_loss()
            for l, h in panel.histories.items()
            if "dynamic" not in l
        )
        # Competitive with the best fixed setting despite the bad start.
        assert dynamic.final_train_loss() <= best_other * 1.6, panel.dataset

    # Controller direction: on IID data mu should not have *grown* from 1.
    iid_dynamic = next(
        h for l, h in result.panel("Synthetic-IID").histories.items()
        if "dynamic" in l
    )
    assert iid_dynamic.mus[-1] <= iid_dynamic.mus[0] + 0.2
