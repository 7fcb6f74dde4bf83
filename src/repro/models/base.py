"""Model interface consumed by the federated optimization algorithms.

The algorithms in :mod:`repro.core` are *solver- and model-agnostic*: they
only ever see a flat parameter vector ``w`` plus loss/gradient oracles, which
is exactly the abstraction used in the paper (local objectives
``F_k(w)``).  :class:`FederatedModel` pins down that contract; two families
implement it:

* :class:`~repro.models.logistic.MultinomialLogisticRegression` — closed-form
  NumPy gradients (fast path for the convex experiments with 1000 devices);
* :class:`NeuralModel` — an adapter that wraps any :class:`repro.nn.Module`
  and derives gradients through the autograd engine (LSTM workloads).
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..autograd import Tensor
from ..nn.module import Module
from ..spec import build, describe

#: Execution backends offered by the LSTM models: ``"fused"`` runs the
#: hand-derived kernels (:func:`repro.autograd.fused_lstm`), ``"graph"``
#: the per-timestep autograd graph kept as the correctness oracle.
LSTM_BACKENDS = ("fused", "graph")

#: Rows per stacked-evaluation block for sequence models.  Each row of a
#: sequence batch carries ``time x 4*hidden`` of activation tape through
#: the fused forward, so the flat-model default
#: (:data:`repro.runtime.evaluation.STACKED_EVAL_BLOCK`) would allocate
#: hundreds of MB at paper scale; 256 rows keeps the tape tens of MB while
#: still amortizing dispatch.
SEQ_EVAL_BLOCK_ROWS = 256


class FederatedModel(abc.ABC):
    """Loss/gradient oracle over a flat parameter vector.

    All array inputs ``X`` are ``(batch, ...)`` and labels ``y`` are
    ``(batch,)``.  ``loss`` is always the *mean* per-sample loss, matching
    the empirical-risk local objectives ``F_k`` of the paper.
    """

    @property
    @abc.abstractmethod
    def n_params(self) -> int:
        """Number of scalar parameters in the flat vector."""

    @abc.abstractmethod
    def get_params(self) -> np.ndarray:
        """Return a copy of the current flat parameter vector."""

    @abc.abstractmethod
    def set_params(self, w: np.ndarray) -> None:
        """Load a flat parameter vector."""

    @abc.abstractmethod
    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean loss of the current parameters on a batch."""

    @abc.abstractmethod
    def gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flat gradient of the mean loss on a batch."""

    def loss_and_gradient(self, X: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """Loss and gradient together (override when fusable)."""
        return self.loss(X, y), self.gradient(X, y)

    @abc.abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted integer labels for a batch."""

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correct predictions on a batch."""
        if len(y) == 0:
            return 0.0
        return float(np.mean(self.predict(X) == np.asarray(y)))

    @property
    def supports_stacked_eval(self) -> bool:
        """Whether federation-level evaluation may stack per-client batches.

        Returning ``True`` promises that (a) :meth:`loss` is the mean
        per-sample loss plus at most a sample-independent regularizer, so the
        loss of a concatenated batch equals the ``n_k``-weighted mean of the
        per-client losses, and (b) a single forward pass over the whole
        federation's data fits in memory.  The runtime's vectorized
        evaluation fast path (:mod:`repro.runtime.evaluation`) is only
        enabled when this holds.
        """
        return False

    @property
    def stacked_eval_block_rows(self) -> Optional[int]:
        """Preferred rows per fused forward pass in stacked evaluation.

        ``None`` defers to the evaluator's global default
        (:data:`repro.runtime.evaluation.STACKED_EVAL_BLOCK`, tuned for
        flat feature rows).  Sequence models override with a smaller
        number: their forward temporaries scale with ``time x hidden``
        per row, so the flat-model block size would blow past cache (and,
        for the fused LSTM, balloon the activation tape).
        """
        return None

    def fast_path_capabilities(self) -> dict:
        """Which runtime fast paths this model unlocks, as one flat dict.

        The runtime gates each fast path on the individual properties; this
        summary exists for benchmarks and diagnostics, so a perf
        regression can be correlated with a capability change.
        """
        return {
            "stacked_eval": bool(self.supports_stacked_eval),
            "stacked_local_solve": bool(self.supports_stacked_local_solve),
            "stacked_local_solve_reason": self.stacked_local_solve_reason,
            "eval_block_rows": self.stacked_eval_block_rows,
        }

    @property
    def supports_stacked_local_solve(self) -> bool:
        """Whether the model implements :meth:`stacked_gradient`.

        Mirrors :attr:`supports_stacked_eval` for the *local solve* hot
        path: the cohort round executor
        (:class:`repro.runtime.cohort.CohortExecutor`) batches all selected
        clients' proximal SGD epochs into one stacked kernel, which needs
        the model to evaluate mini-batch gradients over a leading client
        axis.  Gated capability, not a silent fallback.
        """
        return False

    @property
    def stacked_local_solve_reason(self) -> Optional[str]:
        """Why :attr:`supports_stacked_local_solve` is off (``None`` if on).

        Surfaced by :class:`~repro.runtime.cohort.CohortExecutor`'s
        bind-time error and by :meth:`fast_path_capabilities`, so
        "stacked_local_solve: false" is always accompanied by the *why*
        (e.g. the graph backend being the gradcheck oracle rather than a
        missing kernel).
        """
        if self.supports_stacked_local_solve:
            return None
        return f"{type(self).__name__} does not implement stacked_gradient()"

    def stacked_gradient(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        mask: Optional[np.ndarray],
        counts: np.ndarray,
    ) -> np.ndarray:
        """Per-client mini-batch gradients over a leading client axis.

        Parameters
        ----------
        W:
            ``(K, n_params)`` — one flat parameter vector per client.
        X:
            ``(K, B, ...)`` — per-client mini-batches, zero-padded to the
            cohort's widest batch ``B``.
        y:
            ``(K, B)`` integer labels (padding entries hold a valid class
            index, conventionally 0).
        mask:
            ``(K, B)`` float mask — 1.0 on real samples, 0.0 on padding —
            or ``None``, promising every row is full (no padding).  The
            cohort loop passes ``None`` on fully-dense steps so kernels can
            skip the identity multiply.
        counts:
            ``(K,)`` float — real samples per row (the mini-batch sizes).
            The cohort loop may instead pass the kernel-shaped ``(K, 1, 1)``
            view so implementations can divide without reshaping per step.

        Returns
        -------
        np.ndarray
            ``(K, n_params)`` gradients of each client's *mean* mini-batch
            loss at its own parameter row.  Row ``k`` must equal (bitwise,
            or to ulp-level rounding) ``self.gradient(X_k, y_k)`` evaluated
            at ``W[k]`` — the cohort determinism contract rests on it.
            Implementations may return a reused internal buffer: the value
            is only guaranteed until the next ``stacked_gradient`` call, so
            callers that keep gradients must copy.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement stacked_gradient(); "
            "cohort round execution needs batched per-client gradients"
        )

    def stacked_minibatch_gradients(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        mask: np.ndarray,
        counts: np.ndarray,
    ) -> Iterator[np.ndarray]:
        """Stream a cohort's stacked gradients over a run of gathered steps.

        The stacked counterpart of :meth:`minibatch_gradients`, and the
        only method a model may override to speed up the cohort step loop
        (:func:`repro.runtime.cohort.solve_cohort` steps through it).  The
        default below is one :meth:`stacked_gradient` call per step, so a
        model that implements only that kernel solves exactly as if the
        loop called it itself.

        Parameters
        ----------
        W:
            ``(A, n_params)`` float64 — the active rows of the cohort's
            weight stack, **read in place**: the solver updates them
            between steps, and each gradient must be evaluated at their
            value when that step is requested.  Never written here.
        X, y:
            ``(S, A, B, ...)`` and ``(S, A, B)`` — ``S`` consecutive steps
            of gathered mini-batches, one :meth:`stacked_gradient` ``X`` /
            ``y`` per leading index (never written).
        mask:
            ``(S, A, B)`` float mask, 1.0 on real samples and 0.0 on
            padding.  A step whose mask is all ones reaches the kernel as
            ``mask=None``.
        counts:
            ``(S, A, 1, 1)`` float — each step's kernel-shaped batch sizes.

        Yields
        ------
        np.ndarray
            ``(A, n_params)`` float64: step ``s``'s
            ``stacked_gradient(W, X[s], y[s], mask[s], counts[s])``.  The
            caller may add to it in place; it may be one buffer yielded
            every time, so it is valid only until the stream is advanced.
            Overrides must not keep it (or views of ``W``) past the chunk.
        """
        # Multiplying by an all-ones mask is bitwise neutral, so a step with
        # no ragged batch in any row may skip it: the kernel gets mask=None.
        dense = mask.all(axis=(1, 2)).tolist()
        for s, step_dense in enumerate(dense):
            yield self.stacked_gradient(
                W, X[s], y[s], None if step_dense else mask[s], counts[s]
            )

    def minibatch_gradients(
        self,
        w: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        orders: Iterable[np.ndarray],
        batch_size: int,
    ) -> Iterator[np.ndarray]:
        """Stream one device's mini-batch gradients along a local solve.

        The scalar counterpart of :meth:`stacked_gradient`, and the only
        method a model may override to speed up the per-device solve loop
        (every mini-batch solver steps through it, via
        :meth:`LocalObjective.minibatch_gradients
        <repro.optim.proximal.LocalObjective.minibatch_gradients>`).  The
        default below needs nothing beyond :meth:`set_params` and
        :meth:`gradient`, so a model that does not override it trains
        exactly as if the solver called those two itself.

        Parameters
        ----------
        w:
            ``(n_params,)`` float64 — the solver's iterate, **read in
            place**: the solver updates it between steps, and each
            gradient must be evaluated at its value when that step is
            requested.  Never written here.
        X, y:
            The device's full training arrays (never written).
        orders:
            One index array per started epoch (from
            :meth:`BatchSchedule.epoch_orders
            <repro.optim.base.BatchSchedule.epoch_orders>`, drawn lazily —
            consume it in order and to the end).  Consecutive
            ``batch_size`` runs of an array, the last possibly shorter,
            are that epoch's mini-batches.
        batch_size:
            Mini-batch size.

        Yields
        ------
        np.ndarray
            ``(n_params,)`` float64 gradient of the mean loss on each
            mini-batch in turn, equal to ``set_params(w)`` followed by
            ``gradient(X[batch], y[batch])``.  One buffer owned by this
            stream is yielded every time: the caller may add to it in
            place, and it is valid only until the stream is advanced.
            Overrides must not keep it (or views of ``w``) past the solve.
        """
        out = np.empty(self.n_params, dtype=np.float64)
        for order in orders:
            for start in range(0, len(order), batch_size):
                batch = order[start : start + batch_size]
                self.set_params(w)
                out[:] = self.gradient(X[batch], y[batch])
                yield out

    def clone(self) -> "FederatedModel":
        """A structurally identical model with independently-owned parameters.

        Default implementation round-trips through the flat vector on a new
        instance produced by :meth:`fresh`; subclasses with cheap constructors
        may override.
        """
        other = self.fresh()
        other.set_params(self.get_params())
        return other

    def spawn_replica(self) -> "FederatedModel":
        """An independent replica safe to pickle and ship to a worker process.

        The parallel round executor initializes each worker with one replica
        that serves as that worker's loss/gradient oracle for every client it
        is handed.  Implementations must return an object that (a) shares no
        mutable state with ``self`` and (b) survives ``pickle`` round-trips.
        The default deliberately raises so that requesting parallel execution
        on a model without a replica contract fails loudly instead of
        silently falling back to serial behavior.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement spawn_replica(); "
            "parallel round execution needs a cheap, picklable model replica"
        )

    def fresh(self) -> "FederatedModel":
        """A new instance with the same architecture, as first constructed.

        A registered model (``@repro.spec.register``, every constructor
        argument stored under its own name) is rebuilt from its own
        description — the same pair that replays it from a run ledger;
        any other model overrides this.
        """
        return build(describe(self), "model")


class NeuralModel(FederatedModel):
    """Adapter exposing a :class:`repro.nn.Module` through the flat interface.

    Subclasses must implement :meth:`build` (construct the module),
    :meth:`forward_loss` (batch -> scalar loss Tensor) and :meth:`predict`.

    Parameters
    ----------
    seed:
        Seed for weight initialization; subclasses store it with their other
        constructor arguments, so :meth:`fresh` and ledger replay rebuild an
        identically-initialized architecture.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.module: Module = self.build(np.random.default_rng(seed))

    @abc.abstractmethod
    def build(self, rng: np.random.Generator) -> Module:
        """Construct the underlying module."""

    @abc.abstractmethod
    def forward_loss(self, X: np.ndarray, y: np.ndarray) -> Tensor:
        """Mean loss as a scalar Tensor wired to the module parameters."""

    # Flat interface ------------------------------------------------------ #
    @property
    def n_params(self) -> int:
        return self.module.num_parameters()

    def get_params(self) -> np.ndarray:
        return self.module.get_flat()

    def set_params(self, w: np.ndarray) -> None:
        self.module.set_flat(w)

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        return float(self.forward_loss(X, y).data)

    def gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.loss_and_gradient(X, y)[1]

    def loss_and_gradient(self, X: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        self.module.zero_grad()
        loss = self.forward_loss(X, y)
        loss.backward()
        return float(loss.data), self.module.flat_grad()

    def minibatch_gradients(
        self,
        w: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        orders: Iterable[np.ndarray],
        batch_size: int,
    ) -> Iterator[np.ndarray]:
        """The default stream, with each flat gradient packed straight into
        the yielded buffer instead of concatenated and then copied there."""
        module = self.module
        out = np.empty(self.n_params, dtype=np.float64)
        for order in orders:
            for start in range(0, len(order), batch_size):
                batch = order[start : start + batch_size]
                self.set_params(w)
                module.zero_grad()
                self.forward_loss(X[batch], y[batch]).backward()
                yield module.flat_grad(out=out)

    def spawn_replica(self) -> "NeuralModel":
        """Replica for a worker process.

        Parameter tensors are graph leaves (no backward closures), so a
        cloned module pickles cleanly.
        """
        return self.clone()


ModelFactory = Callable[[], FederatedModel]
