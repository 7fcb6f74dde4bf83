"""Solver- and model-agnosticism: plug your own pieces into FedProx.

The paper stresses that FedProx admits *any* local solver and the
framework here is model-agnostic too.  This example:

1. runs the same FedProx server with SGD, momentum-SGD, Adam, and
   full-batch GD local solvers on a label-skewed image federation;
2. swaps the convex logistic model for a small MLP (autograd-backed);
3. implements a custom one-line local solver — a single proximal-gradient
   step — to show the minimal LocalSolver contract;
4. registers that solver (``@repro.spec.register``), records a run ledger
   with it and replays the ledger from the file alone.

Run:  python examples/custom_solver_and_model.py
"""

import os
import tempfile

from repro.core import FederatedTrainer
from repro.datasets import make_femnist_like
from repro.models import MLPClassifier, MultinomialLogisticRegression
from repro.optim import AdamSolver, GDSolver, LocalSolver, MomentumSGDSolver, SGDSolver
from repro.reporting import format_table, sparkline
from repro.spec import register
from repro.telemetry import JSONLSink, Telemetry
from repro.telemetry.replay import replay_run

ROUNDS = 20
SEED = 3
DIM = 64  # 8x8 images


@register
class OneShotProxStep(LocalSolver):
    """A deliberately minimal local solver: one full-batch proximal step.

    Anything that maps (objective, start point, budget) to an approximate
    minimizer is a valid FedProx local solver — this one ignores the budget
    entirely and still trains (slowly).

    Registered, and keeping its constructor argument under the argument's
    own name, it is written into a run ledger as ``{"type":
    "OneShotProxStep", "learning_rate": 0.5}`` and rebuilt from that on
    replay — the same protocol the built-in solvers and models use.
    """

    def __init__(self, learning_rate: float) -> None:
        self.learning_rate = learning_rate

    def solve(self, objective, w_start, epochs, rng):
        return w_start - self.learning_rate * objective.gradient(w_start)


def train(dataset, model, solver, rounds=ROUNDS, telemetry=None):
    with FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=solver,
        mu=1.0,
        clients_per_round=10,
        epochs=5,
        seed=SEED,
        telemetry=telemetry,
    ) as trainer:
        return trainer.run(rounds)


def main() -> None:
    dataset = make_femnist_like(
        num_devices=40, total_samples=2000, dim=DIM, seed=SEED
    )
    print(f"dataset: {dataset.name}, {dataset.num_devices} devices\n")

    solvers = {
        "SGD": SGDSolver(0.05, batch_size=10),
        "Momentum SGD": MomentumSGDSolver(0.01, momentum=0.9, batch_size=10),
        "Adam": AdamSolver(0.005, batch_size=10),
        "Full-batch GD": GDSolver(0.1),
        "One-shot prox step": OneShotProxStep(0.5),
    }

    rows = []
    for label, solver in solvers.items():
        model = MultinomialLogisticRegression(dim=DIM, num_classes=10)
        history = train(dataset, model, solver)
        rows.append(
            {
                "local solver": label,
                "loss": sparkline(history.train_losses, width=20),
                "final loss": history.final_train_loss(),
                "final acc": history.final_test_accuracy(),
            }
        )
    print(format_table(rows, title="FedProx (mu=1) with different local solvers"))

    # Same server, non-convex model.
    print()
    mlp = MLPClassifier(dim=DIM, num_classes=10, hidden=32, seed=SEED)
    history = train(dataset, mlp, SGDSolver(0.05, batch_size=10))
    print(
        format_table(
            [
                {
                    "model": "MLP (autograd)",
                    "loss": sparkline(history.train_losses, width=20),
                    "final loss": history.final_train_loss(),
                    "final acc": history.final_test_accuracy(),
                }
            ],
            title="FedProx with a non-convex model",
        )
    )

    # The custom solver's run, recorded and replayed from the file alone.
    print()
    with tempfile.TemporaryDirectory() as scratch:
        ledger = os.path.join(scratch, "one_shot.jsonl")
        train(
            dataset,
            MultinomialLogisticRegression(dim=DIM, num_classes=10),
            OneShotProxStep(0.5),
            rounds=5,
            telemetry=Telemetry([JSONLSink(ledger)]),
        )
        print(replay_run(ledger).describe())


if __name__ == "__main__":
    main()
