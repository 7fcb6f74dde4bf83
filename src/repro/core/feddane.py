"""FedDane baseline (Appendix B, Figure 4).

DANE/AIDE-style methods add a *gradient correction* to the proximal local
subproblem.  Adapted to federated constraints (local updating, low
participation) as in the paper's Appendix B, device ``k`` at round ``t``
approximately minimizes::

    F_k(w) + <g_t - ∇F_k(w_t), w> + (mu/2) ||w - w_t||²

where ``g_t`` is an *estimate* of the full gradient ``∇f(w_t)`` computed
from a subsample of ``c`` devices (communicating with all devices is
unrealistic in federated networks).  The paper shows this correction is
counter-productive under heterogeneity: FedDane matches FedProx on IID data
but is unstable and tends to diverge on non-IID data, even as ``c`` grows.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..datasets.federated import FederatedDataset
from ..models.base import FederatedModel
from ..optim.base import LocalSolver
from ..optim.sgd import SGDSolver
from ..runtime.evaluation import device_values
from ..spec import register
from .sampling import SamplingScheme
from .server import FederatedTrainer
from ..systems.stragglers import SystemsModel


@register(tag="trainer")
class FedDaneTrainer(FederatedTrainer):
    """FedDane: FedProx plus a subsampled DANE gradient correction.

    The server loop is :class:`~repro.core.server.FederatedTrainer`'s; this
    class supplies only the per-task correction ``g_t − ∇F_k(w_t)``, so
    FedDane runs on every engine, codec and fault schedule, and γ tracking
    measures its corrected subproblem.

    Parameters
    ----------
    gradient_clients:
        ``c`` — number of devices sampled to estimate ``∇f(w_t)`` each
        round (Figure 4 sweeps 10/20/30).  Defaults to ``clients_per_round``.

    Other parameters match :class:`~repro.core.server.FederatedTrainer`.
    """

    def __init__(self, *args, gradient_clients: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gradient_clients = (
            int(gradient_clients)
            if gradient_clients is not None
            else self.sampling.clients_per_round
        )
        if not 1 <= self.gradient_clients <= self.dataset.num_devices:
            raise ValueError("gradient_clients out of range")

    def describe(self) -> str:
        return f"FedDane (mu={self.mu:g})"

    def _estimate_global_gradient(self, round_idx: int) -> np.ndarray:
        """Estimate ``∇f(w_t)`` from ``c`` uniformly sampled devices.

        The estimate weights each sampled device's gradient by its sample
        count, mirroring the global objective's masses ``p_k`` restricted
        to the subsample.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 0x0DA7E, round_idx])
        )
        chosen = rng.choice(
            self.dataset.num_devices, size=self.gradient_clients, replace=False
        )
        weights = self.dataset.train_sizes[chosen].astype(np.float64)
        weights /= weights.sum()
        gradients = np.stack(device_values(self.clients, self.w, "gradient", chosen))
        return weights @ gradients

    def _corrections(self, round_idx: int) -> Callable[[int], np.ndarray]:
        """Device ``k``'s linear term ``g_t − ∇F_k(w_t)``, with ``g_t`` drawn once."""
        g_estimate = self._estimate_global_gradient(round_idx)
        w = self.w
        return lambda cid: (
            g_estimate - device_values(self.clients, w, "gradient", [cid])[0]
        )


def make_feddane(
    dataset: FederatedDataset,
    model: FederatedModel,
    learning_rate: float,
    mu: float,
    *,
    clients_per_round: int = 10,
    gradient_clients: Optional[int] = None,
    epochs: float = 20,
    batch_size: int = 10,
    solver: Optional[LocalSolver] = None,
    sampling: Optional[SamplingScheme] = None,
    systems: Optional[SystemsModel] = None,
    seed: int = 0,
    **trainer_kwargs,
) -> FedDaneTrainer:
    """Construct a FedDane trainer (see :class:`FedDaneTrainer`)."""
    return FedDaneTrainer(
        dataset=dataset,
        model=model,
        solver=solver or SGDSolver(learning_rate, batch_size=batch_size),
        mu=mu,
        drop_stragglers=False,
        clients_per_round=clients_per_round,
        epochs=epochs,
        sampling=sampling,
        systems=systems,
        seed=seed,
        gradient_clients=gradient_clients,
        **trainer_kwargs,
    )
