"""Multiprocess round execution over persistent workers.

:class:`ParallelExecutor` ships each round's :class:`~repro.runtime.executor.LocalTask`
batch to a pool of persistent worker processes.  Workers are initialized
*once* with the whole federation — each worker holds its own model replica
(obtained from :meth:`~repro.models.base.FederatedModel.spawn_replica`),
the local solver, and its own view of every device's data shard — so per
round only task descriptions (global model vector, coefficients, seed
entropy) cross the process boundary.  Datasets are never re-pickled per
round.

One message per worker per round: a batch is split into at most
``n_workers`` groups of near-equal predicted work, each group crosses as
one pickled list and comes back as one list of updates.  Inside a message
every array the tasks share — the round's ``w_global`` above all — is
written once and referenced by the other tasks (pickle memoizes by object
identity), so the dense model crosses the boundary once per worker, not
once per task.

Determinism: a task is a pure function of its description (the mini-batch
generator is rebuilt in the worker from the task's entropy tuple), task
results are returned in task order whichever worker ran them, and
evaluation reduces per-client metrics in device order with the same
reduction code as the serial path — so training histories are
bit-identical to :class:`SerialExecutor` regardless of worker count.

Fault injection rides the same mechanism: an injected
:class:`~repro.faults.models.FaultDecision` is part of the
:class:`~repro.runtime.executor.LocalTask` that crosses the process
boundary, and the worker applies its effects (crash budget truncation,
corruption noise) through the shared
:func:`~repro.runtime.executor.solve_with_timings` path — so fault
outcomes are bit-identical to in-process execution.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import warnings
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..optim.base import BatchSchedule
from .executor import (
    LocalTask,
    RoundExecutor,
    solve_with_timings,
    task_effective_epochs,
)

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from ..core.client import ClientUpdate


# Per-worker-process state, populated once by _init_worker.
_WORKER: dict = {}

# One-time oversubscription warning (per process); see _warn_oversubscribed.
_OVERSUBSCRIPTION_WARNED = False


def _warn_oversubscribed(requested: int, available: int) -> None:
    """Warn once when more workers are requested than cores exist.

    A round is split into one message per worker, so workers beyond the
    core count take turns on the same cores: the solves run no sooner and
    every extra worker adds a hand-off.  Flag the configuration instead
    of silently running slower than a pool that fits the host.
    """
    global _OVERSUBSCRIPTION_WARNED
    if _OVERSUBSCRIPTION_WARNED:
        return
    _OVERSUBSCRIPTION_WARNED = True
    warnings.warn(
        f"ParallelExecutor: {requested} workers requested but only "
        f"{available} CPU core(s) are available; the extra workers of an "
        "oversubscribed pool share cores and only add process hand-offs. "
        "Use n_workers='auto' to match the host core count.",
        RuntimeWarning,
        stacklevel=3,
    )


def _init_worker(dataset, model, solver) -> None:
    """Build this worker's client pool (runs once per worker process).

    The pool resolves client access through the dataset's store: eager
    datasets prebuild the full client list exactly as before, while
    lazily-materializing stores (mmap shards reopen their files here,
    on-demand synthetic stores rebuild only their metadata) materialize
    clients per access — so workers inherit the store's O(active cohort)
    memory bound instead of each holding a full federation copy.
    """
    from ..core.client import ClientPool

    _WORKER["clients"] = ClientPool(dataset, model, solver)


def _solve_task(task: LocalTask) -> "ClientUpdate":
    """Run one local solve inside a worker process.

    Timing payloads (when the task asks for them) are measured *here*, on
    the worker's own clock, and ride back on the update as plain floats —
    the server re-emits them as ``solve:client`` spans, which is how
    parallel-executor spans survive the process boundary.
    """
    client = _WORKER["clients"][task.client_id]
    update = solve_with_timings(client, task)
    if update.w is not None:
        # Payload audit: the iterate crosses the process boundary as one
        # contiguous float64 buffer (ndarray pickling copies exactly
        # once); solver outputs already satisfy this, so the call is a
        # no-op in practice.  Under a device-side codec ``w`` is None and
        # the encoded payload's bytes buffer is the only array traffic.
        update.w = np.ascontiguousarray(update.w)
    if update.timings is not None:
        update.timings["worker_pid"] = float(os.getpid())
    return update


def _solve_batch(tasks: List[LocalTask]) -> List["ClientUpdate"]:
    """Run one worker's share of a round: one message in, one message out."""
    return [_solve_task(task) for task in tasks]


def _split_by_work(costs: Sequence[int], n_groups: int) -> List[List[int]]:
    """Positions ``0..len(costs)-1`` in ``n_groups`` groups of near-equal cost.

    Longest-processing-time-first: positions are taken in descending cost
    (ties in position order) and each joins the group with the least cost
    so far (ties to the lowest group).  Groups list positions ascending;
    empty groups are dropped.
    """
    groups: List[List[int]] = [[] for _ in range(n_groups)]
    loads = [0] * n_groups
    for position in sorted(range(len(costs)), key=lambda i: -costs[i]):
        lightest = loads.index(min(loads))
        groups[lightest].append(position)
        loads[lightest] += costs[position]
    return [sorted(group) for group in groups if group]


def _eval_chunk(args: Tuple) -> Tuple[Optional[List[float]], int, int]:
    """Evaluate a contiguous slice of clients inside a worker process.

    Returns ``(per_client_losses or None, correct, total)`` for clients
    ``[lo, hi)``; zero-test clients are skipped in the counts.
    """
    w, lo, hi, need_train, need_test = args
    clients = _WORKER["clients"][lo:hi]
    losses = [c.train_loss(w) for c in clients] if need_train else None
    correct = 0
    total = 0
    if need_test:
        for client in clients:
            if client.data.num_test == 0:
                continue
            c, n = client.test_metrics(w)
            correct += c
            total += n
    return losses, correct, total


class ParallelExecutor(RoundExecutor):
    """Round execution over a pool of persistent worker processes.

    Parameters
    ----------
    n_workers:
        Worker process count; defaults to ``os.cpu_count()``.  Pass
        ``"auto"`` for the same heuristic made explicit — the worker count
        is capped at ``os.cpu_count()`` so the pool never oversubscribes.
        Requesting more workers than available cores emits a one-time
        ``RuntimeWarning`` (oversubscribed pools are overhead-bound).
    start_method:
        Multiprocessing start method (``"fork"`` where available, else
        ``"spawn"``).  Results are identical either way; ``"fork"`` starts
        faster and shares the federation's memory copy-on-write.

    Each :meth:`run_local_solves` call sends every worker at most one
    message: the tasks are split by longest-processing-time-first over
    their predicted mini-batch step counts (known before any solve runs,
    from the store's size metadata and the task's effective epochs), and
    the updates are put back in task order.  Retry waves and batches that
    mix several ``w_global`` arrays take the same path.

    The pool starts lazily on first use (or via :meth:`ensure_started`) and
    is shut down by :meth:`close`.  Binding a model without a
    :meth:`~repro.models.base.FederatedModel.spawn_replica` implementation
    raises ``TypeError`` immediately — parallel execution never silently
    degrades to serial.
    """

    def __init__(
        self,
        n_workers: Optional[Union[int, str]] = None,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__()
        available = os.cpu_count() or 1
        if n_workers is None or n_workers == "auto":
            resolved = available
        elif isinstance(n_workers, str):
            raise ValueError(
                f"n_workers must be an int or 'auto', got {n_workers!r}"
            )
        else:
            resolved = int(n_workers)
            if resolved > available:
                _warn_oversubscribed(resolved, available)
        if resolved < 1:
            raise ValueError("n_workers must be at least 1")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        if start_method not in mp.get_all_start_methods():
            raise ValueError(f"unknown start method {start_method!r}")
        self._n_workers = resolved
        self.start_method = start_method
        self._replica = None
        self._pool: Optional[_ProcessPool] = None

    @property
    def n_workers(self) -> int:
        return self._n_workers

    def spec(self) -> str:
        return f"parallel:{self._n_workers}"

    # Lifecycle ---------------------------------------------------------- #
    def _on_bind(self) -> None:
        try:
            self._replica = self.model.spawn_replica()
        except NotImplementedError as exc:
            raise TypeError(
                f"ParallelExecutor requires a model implementing "
                f"spawn_replica(); {type(self.model).__name__} does not. "
                "Implement the replica protocol or use SerialExecutor — "
                "parallel execution will not silently fall back to serial."
            ) from exc
        if self._pool is not None:  # re-bound to a new federation
            self.close()

    def ensure_started(self) -> None:
        self._require_bound()
        if self._pool is None:
            self._pool = _ProcessPool(
                max_workers=self._n_workers,
                mp_context=mp.get_context(self.start_method),
                initializer=_init_worker,
                initargs=(self.dataset, self._replica, self.solver),
            )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # Round work --------------------------------------------------------- #
    def _predicted_steps(self, task: LocalTask) -> int:
        """Mini-batch steps the task's solve will take (no data touched)."""
        n_train = int(self.dataset.train_sizes[task.client_id])
        batch_size = getattr(self.solver, "batch_size", n_train)
        return BatchSchedule(
            n_train, batch_size, task_effective_epochs(task)
        ).total

    def run_local_solves(self, tasks: Sequence[LocalTask]) -> List["ClientUpdate"]:
        if not tasks:
            return []
        self.ensure_started()
        groups = _split_by_work(
            [self._predicted_steps(task) for task in tasks], self._n_workers
        )
        messages = [[tasks[i] for i in group] for group in groups]
        updates: List[Optional["ClientUpdate"]] = [None] * len(tasks)
        for group, solved in zip(groups, self._pool.map(_solve_batch, messages)):
            for position, update in zip(group, solved):
                updates[position] = update
        # Server-side comms finalize: decode device-side payloads (the
        # lean IPC path — only encoded bytes crossed the pool boundary)
        # or round-trip dense updates under error feedback.
        return self._finalize_comms(updates, tasks)

    # Evaluation --------------------------------------------------------- #
    def _eval_bounds(self) -> List[Tuple[int, int]]:
        n = len(self.clients)
        per_chunk = -(-n // self._n_workers)  # ceil division
        return [(lo, min(lo + per_chunk, n)) for lo in range(0, n, per_chunk)]

    def _dispatch_eval(self, w: np.ndarray, need_train: bool, need_test: bool):
        self.ensure_started()
        chunks = [
            (w, lo, hi, need_train, need_test) for lo, hi in self._eval_bounds()
        ]
        return list(self._pool.map(_eval_chunk, chunks))

    def train_loss(self, w: np.ndarray) -> float:
        self._require_bound()
        if self.eval_mode == "stacked":
            # One fused forward on the server beats shipping the model to
            # every worker; both executors share this exact code path.
            return self.evaluator.train_loss(w)
        results = self._dispatch_eval(w, need_train=True, need_test=False)
        losses = np.concatenate([np.asarray(r[0]) for r in results])
        return self.evaluator.reduce_train_losses(losses)

    def test_accuracy(self, w: np.ndarray) -> float:
        self._require_bound()
        if self.eval_mode == "stacked":
            return self.evaluator.test_accuracy(w)
        results = self._dispatch_eval(w, need_train=False, need_test=True)
        correct = sum(r[1] for r in results)
        total = sum(r[2] for r in results)
        return self.evaluator.reduce_test_counts(correct, total)
