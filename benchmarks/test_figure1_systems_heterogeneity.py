"""Figure 1 — training loss under 0/50/90% stragglers on five datasets.

Shape checks (paper):
* higher straggler levels hurt FedAvg's final loss;
* FedProx (mu=0, keep partial work) is at least as good as FedAvg at high
  straggler levels;
* FedProx (best mu) is competitive with or better than mu=0.

The convex datasets are checked strictly; the small LSTM stand-ins are run
for the series (their few smoke rounds are too noisy for ordering
assertions).
"""

from conftest import run_once, show

from repro.experiments import figure_cells, run_cells

CONVEX = ("Synthetic(1,1)", "MNIST-like", "FEMNIST-like")
SEQUENCE = ("Shakespeare-like", "Sent140-like")


def test_figure1_systems_heterogeneity(benchmark, scale):
    result = run_once(benchmark, lambda: run_cells(figure_cells("figure1", scale, seed=0)))
    show(result.render(metric="loss", charts=False))

    assert len(result.panels) == 5 * 3

    for dataset in CONVEX:
        clean = result.panel(dataset, "0% stragglers")
        stressed = result.panel(dataset, "90% stragglers")

        fedavg_clean = clean.histories["FedAvg"].final_train_loss()
        fedavg_90 = stressed.histories["FedAvg"].final_train_loss()
        prox0_90 = stressed.histories["FedProx (mu=0)"].final_train_loss()
        best_label = next(
            l for l in stressed.histories
            if l.startswith("FedProx (mu=") and l != "FedProx (mu=0)"
        )
        prox_best_90 = stressed.histories[best_label].final_train_loss()

        # Dropping 90% of work can't help; keeping partial work must not
        # be worse than dropping (allow small noise at reduced scale).
        assert fedavg_90 >= fedavg_clean * 0.9, dataset
        assert prox0_90 <= fedavg_90 * 1.05, dataset
        assert prox_best_90 <= fedavg_90 * 1.05, dataset

    for dataset in SEQUENCE:
        for level in ("0% stragglers", "50% stragglers", "90% stragglers"):
            panel = result.panel(dataset, level)
            for history in panel.histories.values():
                assert all(l == l and l < 1e6 for l in history.train_losses)
