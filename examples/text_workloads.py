"""The paper's non-convex text workloads at laptop scale.

Trains the Shakespeare-style character LSTM and the Sent140-style
sentiment LSTM — both built on the from-scratch autograd engine — with
FedProx under stragglers.  Sizes are reduced so the example completes in
about a minute on one CPU; the architectures match the paper's
(embedding -> 2-layer LSTM -> dense head).

Run:  python examples/text_workloads.py
"""

from repro.core import FederatedTrainer
from repro.datasets import make_sent140_like, make_shakespeare_like
from repro.models import CharLSTM, SentimentLSTM
from repro.optim import SGDSolver
from repro.reporting import format_table, sparkline
from repro.systems import FractionStragglers

SEED = 4
ROUNDS = 6


def compare(dataset, model_factory, learning_rate, mu):
    rows = []
    for label, drop_stragglers, method_mu in [
        ("FedAvg", True, 0.0),
        ("FedProx", False, mu),
    ]:
        model = model_factory()
        trainer = FederatedTrainer(
            dataset,
            model,
            SGDSolver(learning_rate, batch_size=10),
            mu=method_mu,
            drop_stragglers=drop_stragglers,
            clients_per_round=4,
            epochs=4,
            systems=FractionStragglers(0.5, seed=SEED),
            seed=SEED,
        )
        history = trainer.run(ROUNDS)
        rows.append(
            {
                "method": label,
                "loss": sparkline(history.train_losses, width=16),
                "final loss": history.final_train_loss(),
                "final acc": history.final_test_accuracy(),
            }
        )
    return rows


def main() -> None:
    shakespeare = make_shakespeare_like(
        num_devices=8, seq_len=8, samples_per_device_mean=25, seed=SEED
    )
    print(
        format_table(
            compare(
                shakespeare,
                lambda: CharLSTM(vocab_size=80, embed_dim=8, hidden=16, num_layers=2),
                learning_rate=0.8,
                mu=0.001,
            ),
            title=f"{shakespeare.name}: next-character prediction, 50% stragglers",
        )
    )
    print()

    sent140 = make_sent140_like(
        num_devices=8, vocab_size=120, seq_len=8, seed=SEED
    )
    print(
        format_table(
            compare(
                sent140,
                lambda: SentimentLSTM(
                    vocab_size=120, embed_dim=16, hidden=16, num_layers=2
                ),
                learning_rate=0.3,
                mu=0.01,
            ),
            title=f"{sent140.name}: binary sentiment, 50% stragglers",
        )
    )


if __name__ == "__main__":
    main()
