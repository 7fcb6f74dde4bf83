"""Client-side execution of one round's local work."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Union

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


class Client:
    """One device: local data plus the ability to run a local solve.

    The model instance is *shared* across clients of a federation (the
    trainer owns a single model whose parameters are overwritten for each
    loss/gradient query); this mirrors simulation practice and keeps the
    1000-device configurations within memory.

    Parameters
    ----------
    data:
        The device's local train/test data.
    model:
        Shared model used as the loss/gradient oracle.
    solver:
        Local solver (any :class:`~repro.optim.base.LocalSolver`).
    """

    def __init__(
        self, data: ClientData, model: FederatedModel, solver: LocalSolver
    ) -> None:
        self.data = data
        self.model = model
        self.solver = solver

    @property
    def client_id(self) -> int:
        """Device identifier within the federation."""
        return self.data.client_id

    def make_objective(
        self,
        w_global: np.ndarray,
        mu: float,
        correction: Optional[np.ndarray] = None,
    ) -> LocalObjective:
        """The device's local subproblem anchored at the global model."""
        return LocalObjective(
            model=self.model,
            X=self.data.train_x,
            y=self.data.train_y,
            w_ref=w_global,
            mu=mu,
            correction=correction,
        )

    def local_solve(
        self,
        w_global: np.ndarray,
        mu: float,
        epochs: float,
        rng: np.random.Generator,
        correction: Optional[np.ndarray] = None,
        measure_gamma: bool = False,
    ) -> ClientUpdate:
        """Run the local solver from the global model and report the result.

        Parameters
        ----------
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
        objective = self.make_objective(w_global, mu, correction=correction)
        w_local = self.solver.solve(objective, w_global, epochs, rng)
        # A solver without a batch size (GD, custom) takes full-batch steps.
        batch_size = getattr(self.solver, "batch_size", self.data.num_train)
        evaluations = BatchSchedule(self.data.num_train, batch_size, epochs).total
        gamma = (
            gamma_inexactness(objective, w_local, w_global)
            if measure_gamma
            else None
        )
        return ClientUpdate(
            client_id=self.client_id,
            w=w_local,
            num_train=self.data.num_train,
            epochs=epochs,
            gradient_evaluations=evaluations,
            gamma=gamma,
        )

    def train_loss(self, w: np.ndarray) -> float:
        """Local training loss ``F_k(w)``."""
        self.model.set_params(w)
        return self.model.loss(self.data.train_x, self.data.train_y)

    def train_gradient(self, w: np.ndarray) -> np.ndarray:
        """Local full-batch gradient ``∇F_k(w)``."""
        self.model.set_params(w)
        return self.model.gradient(self.data.train_x, self.data.train_y)

    def test_metrics(self, w: np.ndarray) -> tuple:
        """``(num_correct, num_test)`` on the device's held-out data."""
        if self.data.num_test == 0:
            return 0, 0
        self.model.set_params(w)
        predictions = self.model.predict(self.data.test_x)
        correct = int(np.sum(predictions == self.data.test_y))
        return correct, self.data.num_test


class ClientPool(Sequence):
    """Sequence of :class:`Client` objects resolved through the dataset's store.

    The single point where the runtime turns device ids into clients.  For
    an eager dataset the pool prebuilds the full client list — exactly the
    historical ``[Client(data, model, solver) for data in dataset]``, so
    behavior (and histories) are unchanged.  For a lazily-materializing
    dataset (``dataset.is_lazy``) the pool builds a transient
    :class:`Client` per access instead: the client's data comes from the
    store's bounded cache, so a 10^6-device federation never holds more
    than the active working set in memory.  Clients are stateless wrappers
    (model and solver are shared), so transient construction cannot affect
    training results.

    ``train_sizes`` / ``test_sizes`` expose the store's per-client
    metadata so evaluators can compute aggregation masses without
    materializing anyone.
    """

    def __init__(self, dataset, model: FederatedModel, solver: LocalSolver) -> None:
        self.dataset = dataset
        self.model = model
        self.solver = solver
        self.lazy = bool(getattr(dataset, "is_lazy", False))
        self._eager: Optional[List[Client]] = None
        if not self.lazy:
            self._eager = [Client(data, model, solver) for data in dataset]

    def __len__(self) -> int:
        return len(self.dataset)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[Client, List[Client]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if self._eager is not None:
            return self._eager[index]
        if index < 0:
            index += len(self)
        return Client(self.dataset[index], self.model, self.solver)

    def __iter__(self) -> Iterator[Client]:
        if self._eager is not None:
            return iter(self._eager)
        return (self[i] for i in range(len(self)))

    @property
    def train_sizes(self) -> np.ndarray:
        """Per-client training sample counts (store metadata; no I/O)."""
        return self.dataset.train_sizes

    @property
    def test_sizes(self) -> np.ndarray:
        """Per-client held-out sample counts (store metadata; no I/O)."""
        return self.dataset.test_sizes
