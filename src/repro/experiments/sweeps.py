"""Hyperparameter sweeps following the paper's tuning protocol.

Appendix C.2: "we do a grid search on the learning rate based on FedAvg"
(E=1, no systems heterogeneity) and reuse that rate for every method on the
dataset; Section 5.3.2: "we tune the best µ from the limited candidate set
{0.001, 0.01, 0.1, 1}".  :func:`tune_learning_rate` and :func:`tune_mu`
implement exactly those two protocols so new datasets can be brought into
the harness the way the paper did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.config import EvalConfig
from ..core.fedprox import MU_GRID
from ..core.history import TrainingHistory
from ..core.server import FederatedTrainer
from ..datasets.federated import FederatedDataset
from ..models.base import ModelFactory
from ..optim.sgd import SGDSolver
from ..systems.stragglers import FractionStragglers, SystemsModel

#: A sensible default learning-rate grid (log-spaced).
LR_GRID = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0)


@dataclass
class SweepResult:
    """Outcome of a hyperparameter sweep.

    Attributes
    ----------
    best:
        The winning hyperparameter value.
    histories:
        ``value -> TrainingHistory`` for every grid point.
    """

    best: float
    histories: Dict[float, TrainingHistory]

    def final_losses(self) -> Dict[float, float]:
        """Final global training loss per grid point."""
        return {v: h.final_train_loss() for v, h in self.histories.items()}


def _run(
    dataset: FederatedDataset,
    model_factory: ModelFactory,
    learning_rate: float,
    mu: float,
    rounds: int,
    epochs: float,
    clients_per_round: int,
    batch_size: int,
    seed: int,
    drop_stragglers: bool,
    systems: Optional[SystemsModel],
) -> TrainingHistory:
    trainer = FederatedTrainer(
        dataset=dataset,
        model=model_factory(),
        solver=SGDSolver(learning_rate, batch_size=batch_size),
        mu=mu,
        drop_stragglers=drop_stragglers,
        clients_per_round=clients_per_round,
        epochs=epochs,
        systems=systems,
        seed=seed,
        evaluation=EvalConfig(every=max(rounds, 1), test=False),
    )
    return trainer.run(rounds)


def tune_learning_rate(
    dataset: FederatedDataset,
    model_factory: ModelFactory,
    grid: Sequence[float] = LR_GRID,
    rounds: int = 30,
    clients_per_round: int = 10,
    batch_size: int = 10,
    seed: int = 0,
) -> SweepResult:
    """The paper's learning-rate protocol: FedAvg, E=1, no stragglers.

    The grid point with the lowest final global training loss wins.

    Parameters
    ----------
    dataset, model_factory:
        The workload being tuned.
    grid:
        Candidate learning rates.
    rounds, clients_per_round, batch_size, seed:
        Tuning-run configuration.
    """
    if not grid:
        raise ValueError("empty learning-rate grid")
    histories: Dict[float, TrainingHistory] = {}
    for lr in grid:
        histories[lr] = _run(
            dataset,
            model_factory,
            learning_rate=lr,
            mu=0.0,
            rounds=rounds,
            epochs=1,
            clients_per_round=clients_per_round,
            batch_size=batch_size,
            seed=seed,
            drop_stragglers=True,
            systems=None,
        )
    best = min(histories, key=lambda lr: histories[lr].final_train_loss())
    return SweepResult(best=best, histories=histories)


def tune_mu(
    dataset: FederatedDataset,
    model_factory: ModelFactory,
    learning_rate: float,
    grid: Sequence[float] = MU_GRID,
    rounds: int = 30,
    epochs: float = 20,
    straggler_fraction: float = 0.0,
    clients_per_round: int = 10,
    batch_size: int = 10,
    seed: int = 0,
) -> SweepResult:
    """The paper's µ protocol: FedProx over {0.001, 0.01, 0.1, 1}.

    Run under the environment of interest (e.g. 90% stragglers) with the
    already-tuned learning rate; the lowest final loss wins.
    """
    if not grid:
        raise ValueError("empty mu grid")
    systems: Optional[SystemsModel] = (
        FractionStragglers(straggler_fraction, seed=seed)
        if straggler_fraction > 0
        else None
    )
    histories: Dict[float, TrainingHistory] = {}
    for mu in grid:
        histories[mu] = _run(
            dataset,
            model_factory,
            learning_rate=learning_rate,
            mu=mu,
            rounds=rounds,
            epochs=epochs,
            clients_per_round=clients_per_round,
            batch_size=batch_size,
            seed=seed,
            drop_stragglers=False,
            systems=systems,
        )
    best = min(histories, key=lambda mu: histories[mu].final_train_loss())
    return SweepResult(best=best, histories=histories)
