"""FedAvg (Algorithm 1) as a configuration of the generalized trainer.

FedAvg is the ``mu = 0`` special case of FedProx with SGD as the local
solver and straggler *dropping*: any selected device that cannot complete
``E`` local epochs within the round's global clock cycle is discarded
(paper Section 5.2, following Bonawitz et al.).
"""

from __future__ import annotations

from typing import Optional

from ..datasets.federated import FederatedDataset
from ..models.base import FederatedModel
from ..optim.base import LocalSolver
from ..optim.sgd import SGDSolver
from .sampling import SamplingScheme
from .server import FederatedTrainer
from ..systems.stragglers import SystemsModel


def make_fedavg(
    dataset: FederatedDataset,
    model: FederatedModel,
    learning_rate: float,
    *,
    clients_per_round: int = 10,
    epochs: float = 20,
    batch_size: int = 10,
    solver: Optional[LocalSolver] = None,
    sampling: Optional[SamplingScheme] = None,
    systems: Optional[SystemsModel] = None,
    seed: int = 0,
    **options,
) -> FederatedTrainer:
    """Construct a FedAvg trainer.

    Parameters
    ----------
    dataset, model:
        Federation data and the shared model (its current parameters are
        ``w_0``).
    learning_rate:
        SGD step size (ignored when ``solver`` is given explicitly).
    clients_per_round, epochs, batch_size:
        ``K``, ``E`` and the mini-batch size (10/20/10 in most paper runs).
    solver, sampling, systems, seed:
        Overrides for the local solver, sampling scheme, systems model and
        randomness seed.
    options:
        Forwarded to :class:`~repro.core.server.FederatedTrainer`
        (evaluation and tracking options).
    """
    return FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=solver or SGDSolver(learning_rate, batch_size=batch_size),
        mu=0.0,
        drop_stragglers=True,
        clients_per_round=clients_per_round,
        epochs=epochs,
        sampling=sampling,
        systems=systems,
        seed=seed,
        label=options.pop("label", "FedAvg"),
        **options,
    )
