"""Figure 10 — test accuracy for the E=1 straggler experiments.

The accuracy companion of Figure 9.  Shape check: at 90% stragglers with
E=1, FedProx (mu=0) reaches test accuracy at least as high as FedAvg on
the convex datasets (within small-scale noise).
"""

from conftest import run_once, show

from repro.experiments import figure_cells, run_cells

CONVEX = ("Synthetic(1,1)", "MNIST-like", "FEMNIST-like")


def test_figure10_e1_accuracy(benchmark, scale):
    cells = [c for c in figure_cells("figure9", scale, seed=1) if c["panel"] in CONVEX]
    result = run_once(benchmark, lambda: run_cells(cells))
    show(result.render(metric="accuracy", charts=False))

    # With E=1 and few smoke rounds the final-round snapshot is noisy, so
    # compare the best accuracy reached during the run.  The effect is mild
    # (paper: "can still improve"): loose per-dataset band, >=1 clear win.
    wins = 0
    for dataset in CONVEX:
        stressed = result.panel(dataset, "90% stragglers")
        fedavg_best = stressed.histories["FedAvg"].best_test_accuracy()
        prox0_best = stressed.histories["FedProx (mu=0)"].best_test_accuracy()
        assert prox0_best >= fedavg_best * 0.55, dataset
        if prox0_best >= fedavg_best:
            wins += 1
    assert wins >= 1

    for panel in result.panels:
        for history in panel.histories.values():
            acc = history.final_test_accuracy()
            assert acc is not None and 0.0 <= acc <= 1.0
