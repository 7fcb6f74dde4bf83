"""Figure 6 — test accuracy (and loss/dissimilarity) for the Figure 2 runs.

Figure 6 is the accuracy companion of Figure 2: same four synthetic
datasets, same two methods, no systems heterogeneity.  Shape checks: every
run produces sensible accuracies (well above the 10% chance level on at
least the easier datasets), and accuracy broadly tracks training loss
(the best-loss method is not dramatically worse in accuracy).
"""

from conftest import run_once, show

from repro.experiments import figure_cells, run_cells


def test_figure6_synthetic_accuracy(benchmark, scale):
    result = run_once(benchmark, lambda: run_cells(figure_cells("figure2", scale, seed=1)))
    show(result.render(metric="accuracy", charts=False))

    for panel in result.panels:
        for label, history in panel.histories.items():
            final_acc = history.final_test_accuracy()
            assert final_acc is not None
            assert 0.0 <= final_acc <= 1.0

    # On the IID dataset the problem is learnable: both methods clear 30%.
    iid = result.panel("Synthetic-IID")
    for label, history in iid.histories.items():
        assert history.final_test_accuracy() > 0.3, label

    # Accuracy tracks loss: per panel, the lower-loss method's accuracy is
    # not more than 15 points below the other's.
    for panel in result.panels:
        items = list(panel.histories.items())
        (la, ha), (lb, hb) = items[0], items[1]
        better, worse = (ha, hb) if ha.final_train_loss() <= hb.final_train_loss() else (hb, ha)
        assert better.final_test_accuracy() >= worse.final_test_accuracy() - 0.15
