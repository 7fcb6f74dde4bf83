"""Straggler simulation (the paper's systems-heterogeneity protocol).

Section 5.2: "we fix a global number of epochs E, and force some devices to
perform fewer updates than E epochs given their current systems constraints.
In particular, for varying heterogeneous settings, at each round, we assign
x number of epochs (chosen uniformly at random between [1, E]) to 0%, 50%,
and 90% of the selected devices."

The paper also fixes "the randomly selected devices, the stragglers, and
mini-batch orders across all runs" so that FedAvg and FedProx face the same
environment.  :class:`FractionStragglers` therefore derives all of its
randomness from ``(seed, round, client)`` — two algorithms constructed with
the same seed see identical straggler draws.

Work budgets are expressed in (possibly fractional) epochs so that the E=1
setting of Figures 9-10, where stragglers complete only part of a single
epoch, is representable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..spec import register


#: One past the largest component :func:`entropy_rng` passes as a word.
_WORD = 1 << 32


def entropy_rng(*components: int) -> np.random.Generator:
    """Generator derived from an integer entropy tuple.

    The single seed-entropy pipeline shared by every seeded draw in the
    simulation: straggler budgets (:class:`FractionStragglers`), fault and
    clock draws, device selection, mini-batch orders, codec and corruption
    noise, and on-demand device data all derive their randomness as
    ``default_rng(SeedSequence([...integers...]))``, so any draw is a pure
    function of its ``(seed, round, client, ...)`` identity — independent
    of executor, process, and iteration order.

    Components that all fit one 32-bit word are handed over as a
    ``uint32`` array: the same entropy words as the list (so the same
    stream), read in a third of the time.  Anything else keeps the list,
    which splits a component of ``2**32`` or more into words of its own.
    """
    if components and min(components) >= 0 and max(components) < _WORD:
        entropy = np.array(components, dtype=np.uint32)
    else:
        entropy = [int(c) for c in components]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class WorkAssignment:
    """The amount of local work one selected device can perform this round.

    Attributes
    ----------
    client_id:
        Device the assignment is for.
    epochs:
        Local epochs the device completes (fractional allowed).
    is_straggler:
        ``True`` when ``epochs`` falls short of the global target ``E`` —
        FedAvg drops such devices, FedProx keeps their partial solutions.
    """

    client_id: int
    epochs: float
    is_straggler: bool


class SystemsModel(abc.ABC):
    """Decides per-round, per-device work budgets."""

    @abc.abstractmethod
    def assign(
        self, round_idx: int, client_ids: Sequence[int], max_epochs: float
    ) -> List[WorkAssignment]:
        """Work budgets for the selected devices at round ``round_idx``."""


@register
class NoHeterogeneity(SystemsModel):
    """Every device always completes the full ``E`` epochs."""

    def assign(
        self, round_idx: int, client_ids: Sequence[int], max_epochs: float
    ) -> List[WorkAssignment]:
        return [
            WorkAssignment(client_id=c, epochs=max_epochs, is_straggler=False)
            for c in client_ids
        ]


@register
class FractionStragglers(SystemsModel):
    """Make a fixed fraction of each round's devices stragglers.

    Parameters
    ----------
    fraction:
        Fraction of selected devices per round that become stragglers
        (0.0, 0.5 and 0.9 in Figure 1).
    seed:
        Base seed; identical seeds yield identical straggler environments,
        which is how the paper compares methods fairly.

    Notes
    -----
    A straggler's budget is drawn uniformly from the positive multiples of
    one epoch below ``E`` (i.e. ``{1, ..., E-1}``) when ``E > 1``; when
    ``E <= 1`` the budget is a uniform fraction in ``(0, E)``, matching the
    paper's E=1 experiments where constrained devices finish only part of
    an epoch.
    """

    def __init__(self, fraction: float, seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = float(fraction)
        self.seed = int(seed)

    def _round_rng(self, round_idx: int) -> np.random.Generator:
        return entropy_rng(self.seed, round_idx)

    def assign(
        self, round_idx: int, client_ids: Sequence[int], max_epochs: float
    ) -> List[WorkAssignment]:
        rng = self._round_rng(round_idx)
        n = len(client_ids)
        num_stragglers = int(round(self.fraction * n))
        straggler_pos = set(
            rng.choice(n, size=num_stragglers, replace=False).tolist()
        )
        assignments: List[WorkAssignment] = []
        for pos, client in enumerate(client_ids):
            if pos in straggler_pos:
                if max_epochs > 1:
                    epochs = float(rng.integers(1, int(max_epochs)))
                else:
                    epochs = float(rng.uniform(0.05, max_epochs))
                assignments.append(
                    WorkAssignment(client_id=client, epochs=epochs, is_straggler=True)
                )
            else:
                assignments.append(
                    WorkAssignment(
                        client_id=client, epochs=float(max_epochs), is_straggler=False
                    )
                )
        return assignments


@register
class PowerLawStragglers(SystemsModel):
    """Power-law work budgets: the dominant-straggler skew regime.

    Every selected device draws ``epochs = E * u**alpha`` with
    ``u ~ U(0, 1)``, so budgets follow a power law whose skew grows with
    ``alpha``: at ``alpha = 0`` the federation is homogeneous, while large
    ``alpha`` produces cohorts where most devices finish a sliver of an
    epoch and an occasional near-full-budget device dominates —
    ``sum_k T_k / max_k T_k -> 1``, the regime that starves the stacked
    cohort kernel of width and that the skew-aware packing planner exists
    for (the ``synth_cohort_skew`` workload of ``bench/run.py``).

    Each draw derives from ``(seed, round, client)`` entropy alone, so
    budgets are a pure per-device function — identical across executors,
    processes, and evaluation order, like every other environment draw.

    Parameters
    ----------
    alpha:
        Power-law exponent (``>= 0``); higher means heavier skew.
    seed:
        Base seed for the budget draws.
    """

    def __init__(self, alpha: float, seed: int = 0) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = float(alpha)
        self.seed = int(seed)

    def assign(
        self, round_idx: int, client_ids: Sequence[int], max_epochs: float
    ) -> List[WorkAssignment]:
        assignments: List[WorkAssignment] = []
        for client in client_ids:
            if self.alpha == 0.0:
                assignments.append(
                    WorkAssignment(
                        client_id=client,
                        epochs=float(max_epochs),
                        is_straggler=False,
                    )
                )
                continue
            u = float(entropy_rng(self.seed, round_idx, client).random())
            epochs = float(max_epochs) * u**self.alpha
            assignments.append(
                WorkAssignment(
                    client_id=client,
                    epochs=epochs,
                    is_straggler=epochs < max_epochs,
                )
            )
        return assignments
