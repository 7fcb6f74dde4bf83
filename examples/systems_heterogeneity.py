"""Systems heterogeneity deep-dive (Figure 1 style) with participation counts.

Sweeps straggler levels on a label-skewed MNIST-like federation and shows
how FedAvg's effective participation collapses while FedProx keeps every
selected device contributing.  Also demonstrates the clock-driven systems
model, where work budgets emerge from device hardware profiles instead of
a fixed straggler percentage.

Run:  python examples/systems_heterogeneity.py
"""

import numpy as np

from repro.core import FederatedTrainer
from repro.datasets import make_mnist_like
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.reporting import format_table, sparkline
from repro.systems import (
    ClockDrivenSystems,
    FractionStragglers,
    sample_fleet,
)

ROUNDS = 30
SEED = 1
DIM = 100  # 10x10 "images" keep this example fast


def straggler_sweep(dataset) -> None:
    """Part 1: the paper's x%-straggler protocol."""
    rows = []
    for level in (0.0, 0.5, 0.9):
        for label, drop, mu in [
            ("FedAvg", True, 0.0),
            ("FedProx mu=0", False, 0.0),
            ("FedProx mu=1", False, 1.0),
        ]:
            model = MultinomialLogisticRegression(dim=DIM, num_classes=10)
            trainer = FederatedTrainer(
                dataset, model, SGDSolver(0.03, batch_size=10),
                mu=mu, drop_stragglers=drop,
                systems=FractionStragglers(level, seed=SEED), seed=SEED,
            )
            history = trainer.run(ROUNDS)
            uploads = [len(r.selected) - len(r.dropped) for r in history.records]
            rows.append(
                {
                    "stragglers": f"{int(level * 100)}%",
                    "method": label,
                    "loss": sparkline(history.train_losses, width=24),
                    "final acc": history.final_test_accuracy(),
                    "uploads/round": float(np.mean(uploads)),
                }
            )
    print(format_table(rows, title="Straggler sweep on MNIST-like (E=20, K=10)"))


def clock_driven(dataset) -> None:
    """Part 2: budgets derived from hardware profiles and a round deadline."""
    rng = np.random.default_rng(SEED)
    fleet = sample_fleet(dataset.num_devices, rng)
    systems = ClockDrivenSystems(fleet, deadline=10.0, seed=SEED)

    rows = []
    for label, drop, mu in [("FedAvg", True, 0.0), ("FedProx mu=1", False, 1.0)]:
        model = MultinomialLogisticRegression(dim=DIM, num_classes=10)
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(0.03, batch_size=10),
            mu=mu, drop_stragglers=drop, systems=systems, seed=SEED,
        )
        history = trainer.run(ROUNDS)
        stragglers_per_round = np.mean([len(r.stragglers) for r in history.records])
        rows.append(
            {
                "method": label,
                "loss": sparkline(history.train_losses, width=24),
                "final acc": history.final_test_accuracy(),
                "stragglers/round": float(stragglers_per_round),
            }
        )
    print()
    print(
        format_table(
            rows,
            title="Clock-driven systems model (hardware profiles, deadline=10 cycles)",
        )
    )


def main() -> None:
    dataset = make_mnist_like(
        num_devices=80, total_samples=4000, dim=DIM, seed=SEED
    )
    print(
        f"dataset: {dataset.name} — {dataset.num_devices} devices, "
        f"2 digit classes per device, power-law sizes\n"
    )
    straggler_sweep(dataset)
    clock_driven(dataset)


if __name__ == "__main__":
    main()
