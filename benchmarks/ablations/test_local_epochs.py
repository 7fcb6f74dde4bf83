"""Ablation — interplay of local epochs E and the proximal term mu.

Section 5.3.2: large E causes local drift on heterogeneous data, which mu
counteracts (mu is "a re-parameterization of E").  Sweep E in {1, 5, 20}
at mu in {0, 1} and check that the instability created by large E shrinks
when the proximal term is on.
"""

import numpy as np

from repro.core import EvalConfig, make_fedprox
from repro.datasets import make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.reporting import format_table

ROUNDS = 40
SEED = 0


def _sweep():
    dataset = make_synthetic(1.0, 1.0, num_devices=30, seed=3, size_cap=400)
    rows = []
    for epochs in (1, 5, 20):
        for mu in (0.0, 1.0):
            model = MultinomialLogisticRegression(dim=60, num_classes=10)
            trainer = make_fedprox(
                dataset, model, 0.01, mu=mu, epochs=epochs, seed=SEED,
                evaluation=EvalConfig(every=ROUNDS),
            )
            history = trainer.run(ROUNDS)
            rows.append(
                {
                    "E": epochs,
                    "mu": mu,
                    "final_loss": history.final_train_loss(),
                    "unstable_rounds": int((np.diff(history.train_losses) > 0).sum()),
                }
            )
    return rows


def test_local_epochs_ablation(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="E x mu interplay on Synthetic(1,1)"))

    def cell(E, mu, key):
        return next(r[key] for r in rows if r["E"] == E and r["mu"] == mu)

    # Large E with mu=0 is the least stable configuration.
    assert cell(20, 0.0, "unstable_rounds") >= cell(1, 0.0, "unstable_rounds")
    # The proximal term reduces the instability at E=20.
    assert cell(20, 1.0, "unstable_rounds") <= cell(20, 0.0, "unstable_rounds")
    assert all(np.isfinite(r["final_loss"]) for r in rows)
