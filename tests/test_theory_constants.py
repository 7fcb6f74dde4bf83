"""Measuring the theory's constants on a real federation.

Estimates B, sigma^2 and L (repro.theory.estimation) along a FedProx
training trajectory on Synthetic(1,1) and feeds them into the Theorem 4
calculators: the Remark 5 conditions, the smallest mu with rho > 0, and
Theorem 6's iteration bound.  Sanity shape: B >= 1 everywhere, B is larger
on heterogeneous data than IID data at the same point, and the theory's
suggested mu is positive and finite.
"""

import numpy as np

from repro.core import EvalConfig, FederatedTrainer
from repro.datasets import make_synthetic, make_synthetic_iid
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.reporting import format_table
from repro.theory import (
    estimate_constants,
    minimum_mu_for_positive_rho,
    remark5_conditions,
    rho,
    theorem6_iterations,
)

SEED = 0


def _measure():
    rng = np.random.default_rng(SEED)
    het = make_synthetic(1.0, 1.0, num_devices=15, seed=1, size_cap=200)
    iid = make_synthetic_iid(num_devices=15, seed=1, size_cap=200)

    rows = []
    for name, dataset in [("Synthetic-IID", iid), ("Synthetic(1,1)", het)]:
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(0.01, batch_size=10), mu=1.0,
            clients_per_round=10, seed=SEED,
            evaluation=EvalConfig(every=100),
        )
        trainer.run(10)  # measure at a non-trivial point
        constants = estimate_constants(
            trainer.clients, trainer.w, rng, num_pairs=5, max_clients=10
        )
        row = {
            "dataset": name,
            "B": constants.B,
            "sigma^2": constants.gradient_variance,
            "L (est.)": constants.L,
            "||grad f||": constants.global_gradient_norm,
        }
        # Participation K large enough that rho > 0 is attainable: the
        # large-mu coefficient of rho is (1 - gamma B) - sqrt(2) B (1+gamma)
        # / sqrt(K), so K must exceed 2 B^2 (1+gamma)^2 / (1 - gamma B)^2.
        gamma = 0.01
        if gamma * constants.B < 1.0:
            k_min = 2 * constants.B**2 * (1 + gamma) ** 2 / (
                1 - gamma * constants.B
            ) ** 2
            K = int(np.ceil(k_min * 4))
            check = remark5_conditions(gamma=gamma, B=constants.B, K=K)
            if check.satisfied:
                mu = minimum_mu_for_positive_rho(
                    K=K, gamma=gamma, B=constants.B, L=max(constants.L, 1e-3)
                )
                row["theory mu"] = mu
                row["K used"] = K
                row["T(eps=0.1)"] = theorem6_iterations(
                    delta=2.0,
                    rho_value=rho(
                        mu * 2, K, gamma, constants.B, max(constants.L, 1e-3)
                    ),
                    epsilon=0.1,
                )
        rows.append(row)
    return rows


def test_theory_constants():
    rows = _measure()
    print()
    print(format_table(rows, title="Measured Section-4 constants"))

    by_name = {r["dataset"]: r for r in rows}
    assert by_name["Synthetic-IID"]["B"] >= 1.0
    assert by_name["Synthetic(1,1)"]["B"] >= by_name["Synthetic-IID"]["B"]
    for row in rows:
        assert row["L (est.)"] > 0
        if "theory mu" in row:
            assert np.isfinite(row["theory mu"]) and row["theory mu"] > 0
