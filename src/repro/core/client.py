"""A federation's devices as the runtime reads them, and one device's local solve."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional

import numpy as np

from ..datasets.federated import ClientData
from ..models.base import FederatedModel
from ..optim.base import BatchSchedule, LocalSolver
from ..optim.inexactness import gamma_inexactness
from ..optim.proximal import LocalObjective

if TYPE_CHECKING:  # runtime imports core
    from ..runtime.executor import LocalTask


@dataclass
class ClientUpdate:
    """Result of one device's local solve.

    Attributes
    ----------
    client_id:
        Device that produced the update.
    w:
        The device's approximate local-subproblem minimizer ``w_k^{t+1}``.
    num_train:
        The device's local sample count ``n_k`` (aggregation weight).
    epochs:
        Local work actually performed (fractional for stragglers).
    gradient_evaluations:
        Mini-batch gradient evaluations spent.
    gamma:
        Measured γ-inexactness of the solve (Definition 2), when the
        trainer requested it; ``None`` otherwise.
    timings:
        Wall-clock phase durations (seconds) collected where the solve
        actually ran — plain floats so the payload pickles across the
        worker process boundary — when the task requested timing
        collection; ``None`` otherwise.  Purely observational: timings
        never influence aggregation or histories.
    task:
        The :class:`~repro.runtime.executor.LocalTask` this update answers,
        set by whichever engine ran it — the one pairing of the two.  What
        the task holds is read off it, not copied here: the model the solve
        started from (``task.w_global``, which a late delivery's codec
        decode, drift and retry need), µ, the entropy tuple whose second
        entry is the submit round, and the injected ``task.fault`` the
        server's policy resolves.  ``None`` only on an update built by hand.
    staleness:
        Model-version lag at delivery, stamped by the async engine
        (:mod:`repro.runtime.async_engine`): the update solved against the
        model of round ``r - staleness`` when aggregated at round ``r``.
        Always 0 on synchronous executors.
    discount:
        Multiplicative staleness discount applied to this update's
        aggregation weight; 1.0 (no discount) for fresh updates and on
        synchronous executors.
    payload:
        Encoded wire form (:class:`~repro.comms.codecs.WirePayload`) of
        the iterate while it is in transit under a device-side codec —
        in that state ``w`` is ``None`` and only the payload's contiguous
        byte buffer crosses the process boundary.  The executor's comms
        finalize decodes it back into ``w`` (and clears this field)
        before any consumer sees the update; ``None`` everywhere outside
        that window.
    """

    client_id: int
    w: np.ndarray
    num_train: int
    epochs: float
    gradient_evaluations: int
    gamma: Optional[float] = None
    timings: Optional[Dict[str, float]] = None
    task: Optional["LocalTask"] = None
    staleness: int = 0
    discount: float = 1.0
    payload: Optional[object] = None


class ClientPool(Sequence):
    """The one view of a federation: its devices' data and the local solve.

    Device ``k`` is ``pool[k]`` — its :class:`ClientData`, read through the
    store's ``clients`` view on each access: a packed store's list of
    views, so the object it holds, or a lazily-materializing store
    (``dataset.is_lazy``) itself, so the client it materializes, which
    lives as long as the caller holds it: a 10^6-device federation never
    holds more than the active working set in memory.

    The model and solver are *shared* by every device (the trainer owns a
    single model whose parameters are overwritten for each solve and each
    measurement); this mirrors simulation practice and keeps the
    1000-device configurations within memory.  :meth:`local_solve` runs
    one device's local subproblem; measuring devices at a point ``w`` —
    ``F_k(w)``, ``∇F_k(w)``, held-out correct counts — is
    :func:`repro.runtime.evaluation.device_values`'s.  A slice, a
    re-ordering or a hand-built set of devices is a
    :class:`~repro.datasets.federated.FederatedDataset` of those clients,
    and then a pool over it.

    ``train_sizes`` / ``test_sizes`` expose the store's per-client
    metadata so evaluators can compute aggregation masses without
    materializing anyone.
    """

    def __init__(self, dataset, model: FederatedModel, solver: LocalSolver) -> None:
        self.dataset = dataset
        self.model = model
        self.solver = solver
        # A packed store's list (a read is a list index, not a
        # ``store.get`` call), or a lazy store itself.
        self._devices = dataset.clients

    def __len__(self) -> int:
        return len(self._devices)

    def __getitem__(self, index: int) -> ClientData:
        return self._devices[index]

    def __iter__(self) -> Iterator[ClientData]:
        return iter(self._devices)

    @property
    def train_sizes(self) -> np.ndarray:
        """Per-client training sample counts (store metadata; no I/O)."""
        return self.dataset.train_sizes

    @property
    def test_sizes(self) -> np.ndarray:
        """Per-client held-out sample counts (store metadata; no I/O)."""
        return self.dataset.test_sizes

    def make_objective(
        self,
        data: ClientData,
        w_global: np.ndarray,
        mu: float,
        correction: Optional[np.ndarray] = None,
    ) -> LocalObjective:
        """Device ``data``'s local subproblem anchored at the global model."""
        return LocalObjective(
            model=self.model,
            X=data.train_x,
            y=data.train_y,
            w_ref=w_global,
            mu=mu,
            correction=correction,
        )

    def local_solve(
        self,
        client_id: int,
        w_global: np.ndarray,
        mu: float,
        epochs: float,
        rng: np.random.Generator,
        correction: Optional[np.ndarray] = None,
        measure_gamma: bool = False,
    ) -> ClientUpdate:
        """Run the local solver on one device from the global model.

        Parameters
        ----------
        client_id:
            The device, read once through the store.
        w_global:
            Round-start global model ``w_t``.
        mu:
            Proximal coefficient of the subproblem (0 for FedAvg).
        epochs:
            Work budget from the systems model (fractional allowed).
        rng:
            Mini-batch shuffling randomness for this (round, device).
        correction:
            Optional FedDane linear correction vector.
        measure_gamma:
            Also measure the solve's γ-inexactness (Definition 2); costs
            two extra full-batch gradient evaluations.
        """
        data = self[client_id]
        objective = self.make_objective(data, w_global, mu, correction=correction)
        w_local = self.solver.solve(objective, w_global, epochs, rng)
        # A solver without a batch size (GD, custom) takes full-batch steps.
        batch_size = getattr(self.solver, "batch_size", data.num_train)
        evaluations = BatchSchedule(data.num_train, batch_size, epochs).total
        gamma = (
            gamma_inexactness(objective, w_local, w_global)
            if measure_gamma
            else None
        )
        return ClientUpdate(
            client_id=data.client_id,
            w=w_local,
            num_train=data.num_train,
            epochs=epochs,
            gradient_evaluations=evaluations,
            gamma=gamma,
        )
