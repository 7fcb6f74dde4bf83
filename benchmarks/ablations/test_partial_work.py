"""Ablation — drop vs keep straggler updates, at fixed mu.

Isolates FedProx's first ingredient (tolerating partial work) from the
proximal term by comparing drop_stragglers True/False at the same mu across
straggler levels.  Expected: keeping partial work is increasingly valuable
as the straggler level grows.
"""

import numpy as np

from repro.core import EvalConfig, FederatedTrainer
from repro.datasets import make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.reporting import format_table
from repro.systems import FractionStragglers

ROUNDS = 35
SEED = 1


def _run(dataset, drop, level, mu):
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    trainer = FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=SGDSolver(0.01, batch_size=10),
        mu=mu,
        drop_stragglers=drop,
        clients_per_round=10,
        epochs=20,
        systems=FractionStragglers(level, seed=SEED),
        seed=SEED,
        evaluation=EvalConfig(every=ROUNDS),
    )
    return trainer.run(ROUNDS)


def _sweep():
    dataset = make_synthetic(1.0, 1.0, num_devices=20, seed=3, size_cap=300)
    rows = []
    for level in (0.5, 0.9):
        for mu in (0.0, 1.0):
            dropped = _run(dataset, True, level, mu)
            kept = _run(dataset, False, level, mu)
            rows.append(
                {
                    "stragglers": f"{int(level*100)}%",
                    "mu": mu,
                    "drop final loss": dropped.final_train_loss(),
                    "keep final loss": kept.final_train_loss(),
                }
            )
    return rows


def test_partial_work_ablation(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Drop vs keep straggler updates"))

    # At 90% stragglers, keeping partial work wins at both mu settings.
    for row in rows:
        if row["stragglers"] == "90%":
            assert row["keep final loss"] <= row["drop final loss"] * 1.02, row
    assert all(np.isfinite(r["keep final loss"]) for r in rows)
