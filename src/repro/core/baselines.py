"""Additional baselines referenced by the paper's analysis.

Remark 8 compares FedProx's rate with *distributed SGD without local
updating*: each selected device computes one full-batch gradient at the
current global model and the server averages those single steps.  In the
framework here that is exactly ``FederatedTrainer`` with a one-step
full-batch :class:`~repro.optim.sgd.GDSolver` and ``E = 1`` — the
communication-inefficient end of the local-computation spectrum that
motivates FedAvg/FedProx (Section 2).
"""

from __future__ import annotations

from typing import Optional

from ..datasets.federated import FederatedDataset
from ..models.base import FederatedModel
from ..optim.sgd import GDSolver
from .sampling import SamplingScheme
from .server import FederatedTrainer
from ..systems.stragglers import SystemsModel


def make_distributed_sgd(
    dataset: FederatedDataset,
    model: FederatedModel,
    learning_rate: float,
    *,
    clients_per_round: int = 10,
    sampling: Optional[SamplingScheme] = None,
    systems: Optional[SystemsModel] = None,
    seed: int = 0,
    **options,
) -> FederatedTrainer:
    """Distributed SGD baseline (no local updating, Remark 8).

    Each round, every selected device takes exactly one full-batch gradient
    step from the global model; the server averages the results.  Averaging
    one-step models is algebraically the same as averaging gradients and
    taking one server step, so this is classical synchronous distributed
    SGD restricted to ``K`` sampled devices.

    Parameters
    ----------
    dataset, model:
        Federation data and the shared model.
    learning_rate:
        The single gradient step size.
    clients_per_round, sampling, systems, seed, options:
        As in :class:`~repro.core.server.FederatedTrainer`.
    """
    return FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=GDSolver(learning_rate),
        mu=0.0,
        drop_stragglers=False,
        clients_per_round=clients_per_round,
        epochs=1,
        sampling=sampling,
        systems=systems,
        seed=seed,
        label=options.pop("label", "DistributedSGD"),
        **options,
    )
