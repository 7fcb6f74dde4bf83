"""Ablation — measured γ-inexactness under different work budgets.

Corollary 9 analyzes FedProx with *variable* γ_k^t: each device's local
inexactness depends on how much work it completed.  This ablation measures
the γ's an actual run produces (``track_gamma=True``) and checks the
theory's qualitative reading:

* more local epochs E → smaller measured γ (more exact local solves);
* stragglers (partial work) → larger per-round mean γ;
* γ's shrink over rounds as the global model approaches a region where the
  local subproblems start near their optima.
"""

import numpy as np

from repro.core import EvalConfig, make_fedprox
from repro.datasets import make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.reporting import format_table
from repro.systems import FractionStragglers

ROUNDS = 20
SEED = 0


def _run(dataset, epochs, straggler_fraction):
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    systems = (
        FractionStragglers(straggler_fraction, seed=SEED)
        if straggler_fraction > 0
        else None
    )
    trainer = make_fedprox(
        dataset, model, 0.01, mu=1.0, epochs=epochs,
        systems=systems, seed=SEED, evaluation=EvalConfig(every=ROUNDS),
        track_gamma=True,
    )
    return trainer.run(ROUNDS)


def _sweep():
    dataset = make_synthetic(1.0, 1.0, num_devices=20, seed=3, size_cap=300)
    rows = []
    for epochs, straggler_fraction in [(1, 0.0), (5, 0.0), (20, 0.0), (20, 0.9)]:
        history = _run(dataset, epochs, straggler_fraction)
        gammas = history.gamma_means
        rows.append(
            {
                "E": epochs,
                "stragglers": f"{int(straggler_fraction * 100)}%",
                "gamma first round": gammas[0],
                "gamma last round": gammas[-1],
                "gamma mean": float(np.mean(gammas)),
            }
        )
    return rows


def test_gamma_inexactness_ablation(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows, title="Measured gamma-inexactness (Corollary 9 empirics)"
        )
    )

    def mean_gamma(E, stragglers):
        return next(
            r["gamma mean"] for r in rows
            if r["E"] == E and r["stragglers"] == stragglers
        )

    # More local work -> more exact solves.
    assert mean_gamma(20, "0%") < mean_gamma(5, "0%") < mean_gamma(1, "0%")
    # Stragglers' partial work raises the round's mean gamma.
    assert mean_gamma(20, "90%") > mean_gamma(20, "0%")
    # Every measured gamma is a valid inexactness level.
    for row in rows:
        assert 0.0 <= row["gamma mean"]
        assert np.isfinite(row["gamma mean"])
