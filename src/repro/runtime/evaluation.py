"""Vectorized federation-level evaluation fast paths.

Evaluating the global objective after every round is one of the two hot
paths of the server loop (the other being the local solves): the legacy
path walks every device in Python and runs one small forward pass per
device, which dominates wall-clock time on the paper's 1000-device
federations.  :class:`FederationEvaluator` provides two strategies:

``per_client``
    The legacy semantics — one forward per device, reduced with the
    aggregation masses ``p_k = n_k / n``.  Bit-identical to the historical
    :func:`repro.core.server.global_train_loss` /
    :func:`~repro.core.server.global_test_accuracy` results.

``stacked``
    The whole federation is evaluated in fused forward passes over large
    fixed-size blocks of its stacked split, which the client store hands
    over (:meth:`~repro.datasets.federated.ClientStore.stacked`): a packed
    store's own arrays, of which every client is a view, or one kept
    concatenation of any other store's clients.  The blocks are big
    enough to amortize Python/NumPy dispatch, small enough that the
    softmax temporaries stay cache-resident (a single 178k-row forward is
    memory-bandwidth-bound and measurably slower).  Because every
    :class:`~repro.models.base.FederatedModel` defines ``loss`` as the
    *mean* per-sample loss, the sample-weighted block mean equals the
    ``n_k``-weighted mean of per-client losses up to floating-point
    association (the L2 constant enters exactly once since the block
    weights sum to 1), and the stacked accuracy count is exactly the
    per-client sum.  Only enabled for models advertising
    ``supports_stacked_eval``.

Both round executors share one evaluator instance (or, for worker-side
``per_client`` evaluation, share this module's reduction helpers), which is
what keeps serial and parallel training histories bit-identical.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..datasets.federated import EagerClientStore
from ..telemetry import resolve_telemetry

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from ..core.client import Client
    from ..models.base import FederatedModel

EVAL_MODES = ("auto", "per_client", "stacked")

# Rows per fused forward pass in stacked mode.  2048 rows * 60 features of
# float64 keeps the design matrix slice plus the N x classes softmax
# temporaries inside L2 cache; larger blocks go memory-bandwidth-bound.
STACKED_EVAL_BLOCK = 2048


def resolve_eval_mode(
    model: "FederatedModel", eval_mode: str, lazy: bool = False
) -> str:
    """Resolve ``"auto"`` against the model's stacked-eval capability.

    ``"auto"`` picks ``"stacked"`` whenever the model supports it and falls
    back to ``"per_client"`` otherwise; explicitly requesting ``"stacked"``
    on a model without support is an error rather than a silent fallback.

    ``lazy=True`` (a lazily-materializing client store backs the
    federation) steers ``"auto"`` to ``"per_client"``: the stacked path
    has the store concatenate *every* client's arrays, which defeats its
    O(active cohort) memory bound.  Explicitly requesting
    ``"stacked"`` on a lazy store is still honored — small mmap-backed
    federations may legitimately want it — it simply materializes the
    federation once.
    """
    if eval_mode not in EVAL_MODES:
        raise ValueError(
            f"eval_mode must be one of {EVAL_MODES}, got {eval_mode!r}"
        )
    supported = bool(getattr(model, "supports_stacked_eval", False))
    if eval_mode == "auto":
        return "stacked" if (supported and not lazy) else "per_client"
    if eval_mode == "stacked" and not supported:
        raise ValueError(
            f"{type(model).__name__} does not support stacked evaluation; "
            "use eval_mode='per_client' or 'auto'"
        )
    return eval_mode


def no_test_samples_error(label: str = "") -> ValueError:
    """The federation-wide 'nothing to test on' error, naming the federation."""
    where = f"federation {label!r}" if label else "the federation"
    return ValueError(f"no test samples anywhere in {where}")


class FederationEvaluator:
    """Global train-loss / test-accuracy oracle over a fixed client list.

    Parameters
    ----------
    clients:
        The federation's clients, in device-id order.  A dataset's own
        :class:`~repro.core.client.ClientPool` is evaluated on its store's
        stacked split; any other sequence (a slice, a re-ordering, a
        hand-built list) on a concatenation of exactly those clients'
        arrays.  On a packed store the stacked census therefore reads
        the bytes the solves read, in-place edits included.  What must
        still not change after construction: the client list itself
        (replacing a ``ClientData`` object leaves the store's stack
        behind), and, wherever the split had to be concatenated, the
        clients' arrays — that copy is made once.
    model:
        Model used for the evaluation forward passes (typically the
        trainer's shared model).
    eval_mode:
        ``"per_client"`` or ``"stacked"`` (resolve ``"auto"`` first via
        :func:`resolve_eval_mode`).
    label:
        Federation display name, used in the no-test-samples error.
    block_size:
        Rows per fused forward pass in stacked mode.  ``None`` (default)
        resolves to the model's ``stacked_eval_block_rows`` hint when it
        provides one (sequence models ask for smaller blocks — their
        forward temporaries scale with ``time x hidden`` per row) and to
        :data:`STACKED_EVAL_BLOCK` otherwise.
    telemetry:
        When enabled, each oracle call emits an ``eval:train_loss`` /
        ``eval:test_accuracy`` span with the evaluation mode and row
        count; defaults to the shared no-op telemetry.
    """

    def __init__(
        self,
        clients: Sequence["Client"],
        model: "FederatedModel",
        eval_mode: str = "per_client",
        label: str = "",
        block_size: Optional[int] = None,
        telemetry=None,
    ) -> None:
        if eval_mode not in ("per_client", "stacked"):
            raise ValueError(
                f"eval_mode must be 'per_client' or 'stacked', got {eval_mode!r}"
            )
        if block_size is None:
            block_size = (
                getattr(model, "stacked_eval_block_rows", None) or STACKED_EVAL_BLOCK
            )
        if block_size < 1:
            raise ValueError("block_size must be positive")
        # A lazily-backed client pool is kept as-is (copying into a list
        # would pin transient Client wrappers, and iterating it must stay
        # streaming); plain client sequences are copied as before.
        self.clients = (
            clients if getattr(clients, "lazy", False) else list(clients)
        )
        self.model = model
        self.eval_mode = eval_mode
        self.label = label
        self.block_size = block_size
        self.telemetry = resolve_telemetry(telemetry)
        # Aggregation masses come from store metadata when the client
        # sequence exposes it (ClientPool) — same integers, same float64
        # ops, so results are bit-identical to the per-client loop — and
        # never materialize a lazily-stored client.
        train_sizes = getattr(clients, "train_sizes", None)
        if train_sizes is not None:
            masses = np.asarray(train_sizes, dtype=np.float64)
            test_rows = int(np.asarray(clients.test_sizes).sum())
        else:
            masses = np.array(
                [c.data.num_train for c in self.clients], dtype=np.float64
            )
            test_rows = int(sum(c.data.num_test for c in self.clients))
        self._masses = masses / masses.sum()
        self._train_rows = int(masses.sum())
        self._test_rows = test_rows
        # Where a stacked split comes from: the store behind the
        # dataset's own pool, or a store over exactly the clients given.
        self._store = None
        if eval_mode == "stacked":
            dataset = getattr(clients, "dataset", None)
            self._store = (
                dataset.store
                if dataset is not None
                else EagerClientStore([c.data for c in self.clients])
            )

    # Reductions (shared with worker-side per-client evaluation) --------- #
    def reduce_train_losses(self, losses: np.ndarray) -> float:
        """Combine per-client losses into the global objective ``f(w)``."""
        return float(self._masses @ np.asarray(losses, dtype=np.float64))

    def reduce_test_counts(self, correct: int, total: int) -> float:
        """Combine correct/total counts into the global test accuracy."""
        if total == 0:
            raise no_test_samples_error(self.label)
        return correct / total

    def _blocks(self, n: int):
        for lo in range(0, n, self.block_size):
            yield lo, min(lo + self.block_size, n)

    # Public oracle ------------------------------------------------------ #
    def train_loss(self, w: np.ndarray) -> float:
        """Global objective ``f(w) = sum_k p_k F_k(w)`` of Equation 1."""
        if not self.telemetry.enabled:
            return self._train_loss(w)
        t0 = time.perf_counter()
        result = self._train_loss(w)
        self.telemetry.record_span(
            "eval:train_loss", time.perf_counter() - t0,
            mode=self.eval_mode, rows=self._train_rows,
        )
        return result

    def _train_loss(self, w: np.ndarray) -> float:
        if self.eval_mode == "stacked":
            X, y = self._store.stacked("train")
            self.model.set_params(w)
            total = 0.0
            for lo, hi in self._blocks(len(y)):
                total += float(self.model.loss(X[lo:hi], y[lo:hi])) * (hi - lo)
            return total / len(y)
        losses = np.array([c.train_loss(w) for c in self.clients])
        return self.reduce_train_losses(losses)

    def test_accuracy(self, w: np.ndarray) -> float:
        """Sample-weighted test accuracy across all devices with test data."""
        if not self.telemetry.enabled:
            return self._test_accuracy(w)
        t0 = time.perf_counter()
        result = self._test_accuracy(w)
        self.telemetry.record_span(
            "eval:test_accuracy", time.perf_counter() - t0,
            mode=self.eval_mode, rows=self._test_rows,
        )
        return result

    def _test_accuracy(self, w: np.ndarray) -> float:
        if self.eval_mode == "stacked":
            if self._test_rows == 0:
                raise no_test_samples_error(self.label)
            X, y = self._store.stacked("test")
            self.model.set_params(w)
            correct = 0
            for lo, hi in self._blocks(len(y)):
                correct += int(
                    np.sum(self.model.predict(X[lo:hi]) == y[lo:hi])
                )
            return self.reduce_test_counts(correct, len(y))
        correct = 0
        total = 0
        for client in self.clients:
            if client.data.num_test == 0:
                continue
            c, n = client.test_metrics(w)
            correct += c
            total += n
        return self.reduce_test_counts(correct, total)
