"""Device sampling / aggregation schemes.

The paper distinguishes two paired schemes (Section 5.1 and Figure 12):

* :class:`WeightedSamplingSimpleAverage` — Algorithms 1 and 2 as written:
  the server selects ``K`` devices *with probability* ``p_k = n_k / n``
  (with replacement) and aggregates with a simple average ``1/K sum w_k``.
  This is the scheme the convergence analysis supports.
* :class:`UniformSamplingWeightedAverage` — the scheme used in the paper's
  experiments (proposed by McMahan et al.): devices are sampled uniformly
  without replacement and updates are averaged with weights proportional to
  ``n_k``.

Both schemes derive selection randomness purely from ``(seed, round)``, so
two runs constructed with the same seed select identical devices — the
paper fixes selected devices across all compared runs.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.federated import FederatedDataset
from ..spec import register


class SamplingScheme(abc.ABC):
    """Pairs a device-selection rule with its matching aggregation rule."""

    def __init__(self, dataset: FederatedDataset, clients_per_round: int, seed: int = 0):
        if clients_per_round < 1:
            raise ValueError("clients_per_round must be at least 1")
        if clients_per_round > dataset.num_devices:
            raise ValueError(
                f"cannot select {clients_per_round} of {dataset.num_devices} devices"
            )
        self.dataset = dataset
        self.clients_per_round = int(clients_per_round)
        self.seed = int(seed)

    def _round_rng(self, round_idx: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, round_idx]))

    @abc.abstractmethod
    def select(self, round_idx: int) -> List[int]:
        """Device ids participating in round ``round_idx``."""

    @abc.abstractmethod
    def aggregate(
        self,
        updates: Sequence[Tuple[int, np.ndarray]],
        w_previous: np.ndarray,
        discounts: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Combine device updates into the next global model.

        Parameters
        ----------
        updates:
            ``(client_id, w_k)`` pairs from devices whose solutions the
            algorithm accepted this round.
        w_previous:
            Current global model, returned unchanged when ``updates`` is
            empty (e.g. FedAvg dropped every selected device).
        discounts:
            Optional per-update staleness discounts from the async engine
            (one multiplicative factor per update, 1.0 = fresh).  Folded
            into the scheme's aggregation weights and renormalized, so the
            aggregate stays a convex combination of the delivered
            iterates.  ``None`` (every synchronous round) preserves the
            historical arithmetic bit-for-bit.
        """


@register(live=("dataset",))
class UniformSamplingWeightedAverage(SamplingScheme):
    """Uniform selection without replacement; ``n_k``-weighted averaging."""

    def select(self, round_idx: int) -> List[int]:
        rng = self._round_rng(round_idx)
        chosen = rng.choice(
            self.dataset.num_devices, size=self.clients_per_round, replace=False
        )
        return sorted(int(c) for c in chosen)

    def aggregate(
        self,
        updates: Sequence[Tuple[int, np.ndarray]],
        w_previous: np.ndarray,
        discounts: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        if not updates:
            return w_previous
        # Size metadata comes from the dataset's store when available
        # (identical integers, so eager histories are bit-identical) —
        # materializing a lazily-stored client just to read its training
        # size would defeat the store's O(active cohort) memory bound.
        sizes = getattr(self.dataset, "train_sizes", None)
        if sizes is not None:
            weights = np.array(
                [sizes[cid] for cid, _ in updates], dtype=np.float64
            )
        else:
            weights = np.array(
                [self.dataset[cid].num_train for cid, _ in updates],
                dtype=np.float64,
            )
        if discounts is not None:
            weights = weights * np.asarray(discounts, dtype=np.float64)
        weights /= weights.sum()
        stacked = np.stack([w for _, w in updates])
        return weights @ stacked


@register(live=("dataset",))
class WeightedSamplingSimpleAverage(SamplingScheme):
    """Selection with probability ``p_k`` (with replacement); simple average.

    This is the scheme written in Algorithms 1 and 2 and assumed by the
    convergence analysis.  A device drawn multiple times contributes its
    update multiple times to the average, matching the with-replacement
    expectation ``E_St[...]`` in the theory.
    """

    def select(self, round_idx: int) -> List[int]:
        rng = self._round_rng(round_idx)
        fractions = self.dataset.sample_fractions()
        chosen = rng.choice(
            self.dataset.num_devices,
            size=self.clients_per_round,
            replace=True,
            p=fractions,
        )
        return [int(c) for c in chosen]

    def aggregate(
        self,
        updates: Sequence[Tuple[int, np.ndarray]],
        w_previous: np.ndarray,
        discounts: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        if not updates:
            return w_previous
        stacked = np.stack([w for _, w in updates])
        if discounts is not None:
            weights = np.asarray(discounts, dtype=np.float64)
            weights = weights / weights.sum()
            return weights @ stacked
        return stacked.mean(axis=0)
