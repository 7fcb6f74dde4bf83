"""FedProx (Algorithm 2) as a configuration of the generalized trainer.

FedProx differs from FedAvg in two ways (paper Section 3.2):

1. **Tolerating partial work** — stragglers' partial solutions are
   aggregated rather than dropped;
2. **Proximal term** — each device approximately minimizes
   ``F_k(w) + (mu/2)||w − w_t||²`` with any local solver of its choice.

The paper's µ tuning grid is ``{0.001, 0.01, 0.1, 1}`` (:data:`MU_GRID`);
the best values it reports for the Figure 1 datasets are
:data:`repro.experiments.configs.FIGURE1_BEST_MU`.
"""

from __future__ import annotations

from typing import Optional

from ..datasets.federated import FederatedDataset
from ..models.base import FederatedModel
from ..optim.base import LocalSolver
from ..optim.sgd import SGDSolver
from .adaptive_mu import AdaptiveMuController
from .sampling import SamplingScheme
from .server import FederatedTrainer
from ..systems.stragglers import SystemsModel

#: The paper's µ candidate set (Section 5.3.2).
MU_GRID = (0.001, 0.01, 0.1, 1.0)


def make_fedprox(
    dataset: FederatedDataset,
    model: FederatedModel,
    learning_rate: float,
    mu: float,
    *,
    clients_per_round: int = 10,
    epochs: float = 20,
    batch_size: int = 10,
    solver: Optional[LocalSolver] = None,
    sampling: Optional[SamplingScheme] = None,
    systems: Optional[SystemsModel] = None,
    mu_controller: Optional[AdaptiveMuController] = None,
    seed: int = 0,
    **options,
) -> FederatedTrainer:
    """Construct a FedProx trainer.

    Parameters
    ----------
    dataset, model:
        Federation data and the shared model (its current parameters are
        ``w_0``).
    learning_rate:
        SGD step size (ignored when ``solver`` is given explicitly —
        FedProx admits any local solver).
    mu:
        Proximal coefficient; ``mu=0`` with no stragglers reproduces
        FedAvg's updates exactly.
    clients_per_round, epochs, batch_size:
        ``K``, ``E`` and the mini-batch size.
    solver, sampling, systems, seed:
        Component overrides.
    mu_controller:
        Optional adaptive-µ controller (Figures 3 and 11).
    options:
        Forwarded to :class:`~repro.core.server.FederatedTrainer`.
    """
    return FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=solver or SGDSolver(learning_rate, batch_size=batch_size),
        mu=mu,
        drop_stragglers=False,
        clients_per_round=clients_per_round,
        epochs=epochs,
        sampling=sampling,
        systems=systems,
        mu_controller=mu_controller,
        seed=seed,
        **options,
    )
