"""Quickstart: FedAvg vs FedProx on a heterogeneous synthetic federation.

Builds the paper's Synthetic(1,1) dataset, simulates a network where 90% of
selected devices are stragglers each round, and compares:

* FedAvg        — drops stragglers, mu = 0
* FedProx mu=0  — keeps stragglers' partial work
* FedProx mu=1  — partial work + proximal term (the paper's best setting)

Run:  python examples/quickstart.py
"""

from repro.core import FederatedTrainer
from repro.datasets import make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.reporting import ascii_chart, format_table
from repro.systems import FractionStragglers

ROUNDS = 50
SEED = 0


def main() -> None:
    dataset = make_synthetic(alpha=1.0, beta=1.0, seed=SEED)
    print(
        f"dataset: {dataset.name} — {dataset.num_devices} devices, "
        f"{dataset.total_train_samples} training samples"
    )

    histories = {}
    for label, mu, drop_stragglers in [
        ("FedAvg", 0.0, True),
        ("FedProx mu=0", 0.0, False),
        ("FedProx mu=1", 1.0, False),
    ]:
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(0.01, batch_size=10),
            mu=mu, drop_stragglers=drop_stragglers,
            systems=FractionStragglers(0.9, seed=SEED), seed=SEED,
        )
        histories[label] = trainer.run(ROUNDS)

    print()
    print(
        ascii_chart(
            {label: h.train_losses for label, h in histories.items()},
            title="Global training loss, 90% stragglers, E=20",
            y_label="f(w)",
        )
    )
    print()
    print(
        format_table(
            [
                {
                    "method": label,
                    "final loss": h.final_train_loss(),
                    "final accuracy": h.final_test_accuracy(),
                }
                for label, h in histories.items()
            ],
            title="Summary",
        )
    )


if __name__ == "__main__":
    main()
