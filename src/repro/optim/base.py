"""Local solver interface and the mini-batch schedule API.

FedProx is explicitly *solver-agnostic*: any procedure that produces a
γ-inexact minimizer of the local subproblem is admissible (paper §3.2).
:class:`LocalSolver` captures that contract — a solver receives a
:class:`~repro.optim.proximal.LocalObjective`, a starting point, and a
work budget (epochs), and returns the approximate minimizer.

Mini-batch schedules
--------------------
All batching logic lives in :class:`BatchSchedule`, the single source of
truth for how a device's work budget turns into shuffled mini-batches.

Determinism: a schedule consumes the supplied ``rng`` exactly one
``permutation(n_samples)`` draw per *started* epoch, in order.  The cohort
fast path (:mod:`repro.runtime.cohort`) relies on this to replay the same
batch sequence the scalar solvers draw, making both paths bit-comparable.

The scalar solve loop
---------------------
There is one: :meth:`MiniBatchSolver.solve`.  It streams the subproblem's
mini-batch gradients from
:meth:`LocalObjective.minibatch_gradients
<repro.optim.proximal.LocalObjective.minibatch_gradients>` — which reads
the iterate in place and yields one reused buffer — and applies the
solver's update rule to each.  The rule is the solver's ``stacked_step``
below, run on the ``(1, d)`` view of the iterate, so a mini-batch solver
is its update rule and nothing else.

Stacked (cohort) solve protocol
-------------------------------
Solvers that can run many clients' local solves simultaneously over a
``(K, n_params)`` weight matrix advertise ``supports_stacked_solve`` and
implement three hooks used by :class:`repro.runtime.cohort.CohortExecutor`:

``stacked_plan(n_samples, epochs, rng)``
    The per-client mini-batch schedule as ``(indices, lengths)`` — the
    budget's sample indices in visiting order and each step's batch
    length (``len(lengths)`` is the step count) — drawn from ``rng``
    exactly as the scalar ``solve`` would draw it.
``stacked_state(shape)``
    Preallocated workspace buffers for a cohort of ``shape = (L, d)``
    (one row per scheduler *lane*; see :mod:`repro.runtime.packing`).
``stacked_step(W, G, state, step)``
    Apply one update in place to the *active* rows ``W`` (a ``(A, d)``
    prefix view) given subproblem gradients ``G``.  ``step`` is either a
    plain ``int`` — every active row is at the same 1-based local step, the
    common case when each lane runs a single client chain — or an ``(A,)``
    ``int64`` array of per-row 1-based local steps, which the skew-aware
    packing planner passes when lanes at different chain offsets share a
    kernel segment.  Every row must get the floating-point operations,
    in the same order, that it would get as a cohort of one — the scalar
    solve is exactly that call — so the two paths agree bitwise
    (step-dependent solvers like Adam must make the array branch
    numerically identical to the scalar exponentiation).
``stacked_reset(state, rows)``
    Re-zero any per-row solver state (momentum velocity, Adam moments)
    when a lane is recycled for a *new* client chain mid-solve.  ``rows``
    is an ``int`` row index or an index array.  Stateless solvers keep the
    default no-op.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .proximal import LocalObjective


class BatchSchedule:
    """Mini-batch schedule for ``epochs`` passes over ``n_samples`` points.

    Parameters
    ----------
    n_samples:
        Device sample count (must be positive).
    batch_size:
        Mini-batch size; when ``batch_size >= n_samples`` every "epoch" is
        a single full-data batch (still shuffled).
    epochs:
        Work budget in passes over the data; fractional budgets (straggler
        devices) round to the nearest batch count, with a minimum of one
        batch so every participating device does *some* work.
    """

    def __init__(
        self, n_samples: int, batch_size: int, epochs: float = 1.0
    ) -> None:
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        self.n_samples = int(n_samples)
        self.batch_size = int(batch_size)
        self.epochs = float(epochs)

    @property
    def per_epoch(self) -> int:
        """Mini-batches in one epoch (final partial batch included)."""
        if self.batch_size >= self.n_samples:
            return 1
        return -(-self.n_samples // self.batch_size)  # ceil division

    @property
    def total(self) -> int:
        """Mini-batches in the whole budget (``>= 1``)."""
        return max(1, int(round(self.epochs * self.per_epoch)))

    def one_epoch(self, rng: np.random.Generator) -> List[np.ndarray]:
        """One shuffled epoch's batches (one ``permutation`` draw).

        The final partial batch is kept, matching common SGD practice and
        the reference implementation's behaviour.
        """
        return self._split(rng.permutation(self.n_samples))

    def _split(self, order: np.ndarray) -> List[np.ndarray]:
        """Consecutive ``batch_size`` runs of ``order`` (last may be short)."""
        return [
            order[start : start + self.batch_size]
            for start in range(0, len(order), self.batch_size)
        ]

    def epoch_orders(self, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """Yield each started epoch's visiting order, cut to the budget.

        One ``permutation`` draw per started epoch; consecutive
        ``batch_size`` runs of a yielded array (the last may be shorter)
        are that epoch's mini-batches, so the final epoch of a fractional
        budget yields only the prefix it gets to visit.  This is the form
        :meth:`FederatedModel.minibatch_gradients
        <repro.models.base.FederatedModel.minibatch_gradients>` consumes —
        a model may gather an epoch's rows once and slice batches from the
        copy.
        """
        left = self.total
        per_epoch = self.per_epoch
        while left > 0:
            order = rng.permutation(self.n_samples)
            if left < per_epoch:
                order = order[: left * self.batch_size]
            yield order
            left -= per_epoch

    def batches(self, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """Yield :attr:`total` mini-batches, reshuffling at epoch starts."""
        for order in self.epoch_orders(rng):
            yield from self._split(order)

    def materialize(self, rng: np.random.Generator) -> List[np.ndarray]:
        """The full batch sequence as a list of index arrays."""
        return list(self.batches(rng))

    def flat(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """The budget as one index array plus each step's batch length.

        ``np.concatenate(materialize(rng))`` and ``[len(b) for b in
        materialize(rng)]`` from the same draws, without building the
        batches: the lengths follow from the sizes alone (every batch is
        full except the last of a whole epoch).  This is the form the
        cohort planner scatters into its gather plan.
        """
        indices = np.concatenate(list(self.epoch_orders(rng)))
        per_epoch = self.per_epoch
        lengths = np.full(self.total, min(self.batch_size, self.n_samples))
        lengths[per_epoch - 1 :: per_epoch] = (
            self.n_samples - (per_epoch - 1) * self.batch_size
        )
        return indices, lengths


class LocalSolver(abc.ABC):
    """Produce an approximate minimizer of a local subproblem.

    Implementations must be deterministic given the supplied ``rng``; the
    federated server uses this to fix mini-batch orders across compared
    runs, as the paper's experimental protocol requires.

    A solver is replayable from a run ledger when it stores each
    constructor argument under the argument's own name and is registered
    (``@repro.spec.register`` above the class), as the built-in ones are.
    """

    @abc.abstractmethod
    def solve(
        self,
        objective: LocalObjective,
        w_start: np.ndarray,
        epochs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Run ``epochs`` of local work from ``w_start`` and return the result.

        Parameters
        ----------
        objective:
            The (possibly proximal) local objective ``h_k``.
        w_start:
            Starting parameter vector (the global model ``w_t``).
        epochs:
            Number of passes over the device's local data.
        rng:
            Source of mini-batch shuffling randomness.
        """

    def describe(self) -> str:
        """Short human-readable description, used in experiment logs."""
        return type(self).__name__

    # Stacked (cohort) solve protocol ------------------------------------ #
    @property
    def supports_stacked_solve(self) -> bool:
        """Whether the solver implements the stacked cohort hooks below."""
        return False

    def stacked_plan(
        self, n_samples: int, epochs: float, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One client's mini-batch schedule for a cohort solve.

        Returns ``(indices, lengths)``: step ``t`` trains on the
        ``lengths[t]`` entries of ``indices`` that follow the earlier
        steps' (``indices`` has ``lengths.sum()`` entries, and the caller
        owns both arrays).  Must consume ``rng`` exactly as :meth:`solve`
        does, so the cohort path replays the scalar path's batch order.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support stacked cohort solves"
        )

    def stacked_state(self, shape: tuple) -> Optional[dict]:
        """Preallocated workspace for a cohort solve over ``shape=(L, d)``."""
        return None

    def stacked_step(
        self,
        W: np.ndarray,
        G: np.ndarray,
        state: Optional[dict],
        step,
    ) -> None:
        """Apply one in-place update to the active rows of the cohort.

        ``step`` is an ``int`` (uniform segment) or an ``(A,)`` int64 array
        of per-row 1-based local steps (mixed-offset segment).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support stacked cohort solves"
        )

    def stacked_reset(self, state: Optional[dict], rows) -> None:
        """Zero per-row solver state when a lane starts a new client chain.

        Called by the cohort scheduler each time a lane is (re)assigned to
        a client, so stateful solvers reproduce the scalar path's
        fresh-state-per-solve behaviour even when several clients share a
        lane back-to-back.  The default is a no-op, correct for stateless
        solvers whose workspace holds only scratch buffers.
        """


class MiniBatchSolver(LocalSolver):
    """A solver that applies one update rule per scheduled mini-batch.

    Subclasses set ``batch_size`` and write their rule once, as
    :meth:`stacked_step` (with :meth:`stacked_state` / :meth:`stacked_reset`
    for per-row state); both execution paths run it.  The cohort executor
    applies it to the ``(A, d)`` active rows; :meth:`solve` below applies
    it to the one-row view of a single iterate, fed by the objective's
    streamed mini-batch gradients — so the scalar and stacked paths share
    every floating-point operation of the update by construction, and no
    solver owns a batching loop.
    """

    batch_size: int

    @abc.abstractmethod
    def stacked_step(
        self, W: np.ndarray, G: np.ndarray, state: Optional[dict], step
    ) -> None:
        """The solver's update rule (contract on :class:`LocalSolver`)."""

    def solve(
        self,
        objective: LocalObjective,
        w_start: np.ndarray,
        epochs: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        w = np.array(w_start, dtype=np.float64, copy=True)
        schedule = BatchSchedule(objective.n_samples, self.batch_size, epochs)
        W = w[None, :]
        state = self.stacked_state(W.shape)
        # The stream reads ``w`` in place at every step and yields one
        # reused buffer (see LocalObjective.minibatch_gradients).
        for step, grad in enumerate(
            objective.minibatch_gradients(w, schedule, rng), start=1
        ):
            self.stacked_step(W, grad[None, :], state, step)
        return w

    @property
    def supports_stacked_solve(self) -> bool:
        return True

    def stacked_plan(
        self, n_samples: int, epochs: float, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        return BatchSchedule(n_samples, self.batch_size, epochs).flat(rng)
