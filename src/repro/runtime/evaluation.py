"""Vectorized federation-level evaluation fast paths.

Evaluating the global objective after every round is one of the two hot
paths of the server loop (the other being the local solves): the legacy
path walks every device in Python and runs one small forward pass per
device, which dominates wall-clock time on the paper's 1000-device
federations.  :class:`FederationEvaluator` provides two strategies:

``per_client``
    The legacy semantics — one forward per device, reduced with the
    aggregation masses ``p_k = n_k / n``.  Bit-identical to the reference
    loops :func:`repro.metrics.federated_train_loss` /
    :func:`~repro.metrics.federated_test_accuracy`.

``stacked``
    The whole federation is evaluated in fused forward passes over large
    fixed-size blocks of its stacked split, which the client store hands
    over (:meth:`~repro.datasets.federated.ClientStore.stacked`): a packed
    store's own arrays, of which every client is a view, or one kept
    concatenation of any other store's clients.  The blocks are big
    enough to amortize Python/NumPy dispatch and small enough that a
    block's temporaries are a fixed few MB whatever the federation's size
    (a single 178k-row forward is memory-bandwidth-bound and measurably
    slower).  Because every
    :class:`~repro.models.base.FederatedModel` defines ``loss`` as the
    *mean* per-sample loss, the sample-weighted block mean equals the
    ``n_k``-weighted mean of per-client losses up to floating-point
    association (the L2 constant enters exactly once since the block
    weights sum to 1), and the stacked accuracy count is exactly the
    per-client sum.  Only enabled for models advertising
    ``supports_stacked_eval``.

Either way a census is two things, and this module holds the one
implementation of each: *per-unit values* — one mean loss or one correct
count per block (stacked) or per client (``per_client``), each a pure
function of ``w`` and that unit's rows
(:meth:`FederationEvaluator.values`) — and *their reduction in unit order*
(:meth:`FederationEvaluator.reduce`).  Every engine reduces on the server;
the serial, cohort and async engines compute the values there too, the
parallel engine computes them on its workers, over the workers' own view
of the same bytes (:meth:`FederationEvaluator.census` takes the stand-in).
Same units, same bytes, same per-unit code, the same additions in the
same order: histories are bit-identical across engines by construction.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ..datasets.federated import EagerClientStore, PackedClientStore
from ..telemetry import resolve_telemetry

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from ..core.client import Client
    from ..models.base import FederatedModel

EVAL_MODES = ("auto", "per_client", "stacked")

# Rows per fused forward pass in stacked mode: what one census value
# covers and what a census holds at a time (the block's scores, 160 KB),
# not the shape of the products inside it.  The logistic forward walks a
# block in cache-sized sub-blocks through one reused float64 buffer
# (models/logistic.py, _SCORE_BYTES), so a float32 MNIST-like block is
# never converted whole.  Measured there (train split, 28 blocks, ms per
# census, whole-block forward -> sub-blocked): conversion 36 -> 26, GEMM
# 61 -> 21, softmax tail 6.5 -> 6.0.  That moved evaluated losses by <= 8
# ulp: numerics epoch 1 (DESIGN section 15).
STACKED_EVAL_BLOCK = 2048

# The telemetry span a census of each split is recorded under.
_SPANS = {"train": "eval:train_loss", "test": "eval:test_accuracy"}


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

    # The census, in two halves ------------------------------------------ #
    # A census is a list of per-unit values — one per block of the stacked
    # split, or one per client — reduced in unit order.  The values are the
    # only part that reads rows or the model, and each is a pure function
    # of ``(w, its rows)``: whichever process computes them, over whichever
    # copy of the same bytes, the reduction sees the same floats in the
    # same order.  That is what lets :class:`ParallelExecutor` compute
    # them on its workers and still equal the serial engine with ``==``.
    def _rows(self, split: str) -> int:
        return self._train_rows if split == "train" else self._test_rows

    def stack_in_place(self, split: str):
        """The stacked ``split`` if the store owns it as arrays, else ``None``.

        Owned means :meth:`values` copies nothing to read it, in any
        process that holds the store; otherwise the first stacked census
        concatenates the whole split, once per process that runs one.
        """
        if isinstance(self._store, PackedClientStore):
            return self._store.stacked(split)
        return None

    def units(self, split: str) -> Sequence:
        """What a census of ``split`` reduces over, in reduction order.

        Stacked: the ``(lo, hi)`` row bounds of each evaluation block.
        Per-client: the client ids.  Any contiguous slice of the result is
        a valid argument to :meth:`values`.
        """
        if self.eval_mode != "stacked":
            return range(len(self.clients))
        n = self._rows(split)
        return [
            (lo, min(lo + self.block_size, n))
            for lo in range(0, n, self.block_size)
        ]

    def values(self, w: np.ndarray, split: str, units: Sequence) -> list:
        """One Python number per unit: a mean loss, or a correct count.

        Plain ``float`` / ``int`` so a value computed in a worker crosses
        the pickle boundary exactly.  Clients are indexed one at a time —
        a lazily-backed pool then holds no more than its store's cache.
        """
        model = self.model
        if self.eval_mode == "stacked":
            X, y = self._store.stacked(split)
            model.set_params(w)
            if split == "train":
                return [float(model.loss(X[lo:hi], y[lo:hi])) for lo, hi in units]
            return [
                int(np.sum(model.predict(X[lo:hi]) == y[lo:hi]))
                for lo, hi in units
            ]
        if split == "train":
            return [float(self.clients[i].train_loss(w)) for i in units]
        return [self.clients[i].test_metrics(w)[0] for i in units]

    def reduce(self, split: str, units: Sequence, values: Sequence) -> float:
        """Fold :meth:`values` of all of :meth:`units`, in unit order."""
        if split == "test":
            # Counts are integers: their sum has no order to keep.
            return sum(values) / self._test_rows
        if self.eval_mode == "stacked":
            total = 0.0
            for (lo, hi), value in zip(units, values):
                total += value * (hi - lo)
            return total / self._train_rows
        return float(self._masses @ np.asarray(values, dtype=np.float64))

    def census(self, w: np.ndarray, split: str, compute=None) -> float:
        """The ``"train"`` loss or ``"test"`` accuracy of ``w`` over everyone.

        ``compute`` stands in for :meth:`values` (same arguments, same
        result) when the caller has somewhere better to run it; the units,
        the reduction, the no-test-rows error and the span stay here.
        """
        if split == "test" and self._test_rows == 0:
            raise no_test_samples_error(self.label)
        t0 = time.perf_counter() if self.telemetry.enabled else 0.0
        units = self.units(split)
        result = self.reduce(
            split, units, (compute or self.values)(w, split, units)
        )
        if self.telemetry.enabled:
            self.telemetry.record_span(
                _SPANS[split], time.perf_counter() - t0,
                mode=self.eval_mode, rows=self._rows(split),
            )
        return result

    # Public oracle ------------------------------------------------------ #
    def train_loss(self, w: np.ndarray) -> float:
        """Global objective ``f(w) = sum_k p_k F_k(w)`` of Equation 1."""
        return self.census(w, "train")

    def test_accuracy(self, w: np.ndarray) -> float:
        """Sample-weighted test accuracy across all devices with test data."""
        return self.census(w, "test")
