"""Multiprocess round execution over persistent workers.

:class:`ParallelExecutor` ships each round's :class:`~repro.runtime.executor.LocalTask`
batch to a pool of persistent worker processes.  Workers are initialized
*once* with the whole federation — each worker holds its own model replica
(obtained from :meth:`~repro.models.base.FederatedModel.spawn_replica`),
the local solver, and its own :class:`~repro.core.client.ClientPool` over
the federation — so per
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

The census runs there too.  A ``train_loss`` / ``test_accuracy`` call is
per-unit values reduced in unit order
(:mod:`repro.runtime.evaluation`); the workers hold the rows, so they
compute the values — each a contiguous share of the blocks of the stacked
split, or of the clients, with its own replica through a worker-side
:class:`~repro.runtime.evaluation.FederationEvaluator` — and the server
joins the returned floats/ints in unit order and runs the one reduction.
One message per worker per call: ``w``, the split name and the share's
bounds go down, plain Python numbers come back, no row ever crosses.  A
stacked census is sharded only where that cannot cost memory or time: the
store must own its stacked splits as arrays (a packed store — the workers
read them in place; any other store would concatenate a copy of the
federation in every worker) and the cut must take at least
:data:`MIN_ELEMENTS_SAVED` feature values off what the server would
otherwise wait for.  Everything else is evaluated on the server, exactly
as the serial engine does it.

Determinism: a task is a pure function of its description (the mini-batch
generator is rebuilt in the worker from the task's entropy tuple), task
results are returned in task order whichever worker ran them, and a
census value is a pure function of ``w`` and its rows, computed by the
same code over the same bytes and reduced on the server in the same order
as the serial path — so training histories are bit-identical to
:class:`SerialExecutor` regardless of worker count.

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
from .evaluation import FederationEvaluator
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

# A stacked census goes to the pool only when that takes at least this many
# feature values (rows x row width) off what the server would otherwise wait
# for: below it the hand-offs cost more than the second core gives back
# (measured crossovers in DESIGN.md §8).
MIN_ELEMENTS_SAVED = 1 << 21

# One-time oversubscription warning (per process); see _warn_oversubscribed.
_OVERSUBSCRIPTION_WARNED = False


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one (a container's cpuset), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        f"{available} CPU core(s) are usable; the extra workers of an "
        "oversubscribed pool share cores and only add process hand-offs. "
        "Use n_workers='auto' to match the usable core count.",
        RuntimeWarning,
        stacklevel=3,
    )


def _init_worker(dataset, model, solver, eval_mode) -> None:
    """Build this worker's client pool (runs once per worker process).

    The pool reads devices through the dataset's store: an eager store's
    clients arrived with the dataset, while lazily-materializing stores
    (mmap shards reopen their files here, on-demand synthetic stores
    rebuild only their metadata) materialize clients per access — so
    workers inherit the store's O(active cohort) memory bound instead of
    each holding a full federation copy.

    The worker's evaluator answers census shares over that same pool with
    the worker's replica; it only ever computes values, never reduces.
    """
    from ..core.client import ClientPool

    clients = ClientPool(dataset, model, solver)
    _WORKER["clients"] = clients
    _WORKER["evaluator"] = FederationEvaluator(clients, model, eval_mode)


def _solve_task(task: LocalTask) -> "ClientUpdate":
    """Run one local solve inside a worker process.

    Timing payloads (when the task asks for them) are measured *here*, on
    the worker's own clock, and ride back on the update as plain floats —
    the server re-emits them as ``solve:client`` spans, which is how
    parallel-executor spans survive the process boundary.
    """
    update = solve_with_timings(_WORKER["clients"], task)
    if update.w is not None:
        # Payload audit: the iterate crosses the process boundary as one
        # contiguous float64 buffer (ndarray pickling copies exactly
        # once); solver outputs already satisfy this, so the call is a
        # no-op in practice.  Under a device-side codec ``w`` is None and
        # the encoded payload's bytes buffer is the only array traffic.
        update.w = np.ascontiguousarray(update.w)
    if update.timings is not None:
        update.timings["worker_pid"] = float(os.getpid())
    # The reply ships no task: the server still holds the one it sent and
    # re-attaches it by position.
    update.task = None
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


def _census_share(message: Tuple[np.ndarray, str, Sequence]) -> list:
    """One worker's share of a census: the values of a contiguous unit range."""
    w, split, units = message
    return _WORKER["evaluator"].values(w, split, units)


class ParallelExecutor(RoundExecutor):
    """The pool backend: due tasks solved on persistent worker processes.

    Parameters
    ----------
    n_workers:
        Worker process count; ``None`` or ``"auto"`` is one worker per
        core this process may run on (its CPU affinity, e.g. a container's
        cpuset, where the platform reports one; else ``os.cpu_count()``),
        so the pool never oversubscribes.  Requesting more workers than
        that emits a one-time ``RuntimeWarning`` (oversubscribed pools are
        overhead-bound).
    start_method:
        Multiprocessing start method (``"fork"`` where available, else
        ``"spawn"``).  Results are identical either way; ``"fork"`` starts
        faster and shares the federation's memory copy-on-write.

    Each delivered batch sends every worker at most one message: the tasks
    are split by longest-processing-time-first over their predicted
    mini-batch step counts (known before any solve runs, from the store's
    size metadata and the task's effective epochs), and the updates are put
    back in task order.  Retry waves and batches that mix several
    ``w_global`` arrays take the same path.

    A census (:meth:`train_loss`, :meth:`test_accuracy`) sends every worker
    at most one message as well (module docstring): the workers compute
    its per-unit values (:meth:`_census_values`), the server reduces them.
    A census computed on the pool leaves the server's shared model
    untouched — nothing reads it between rounds, and the trainer sets it
    after every aggregation.

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
        available = _usable_cores()
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
        # A census cuts no more shares than there are cores to run them,
        # since more would queue behind each other.  The gain is unmeasured:
        # no benchmark workload runs more workers than cores.
        self._census_shares = min(resolved, available)
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
                initargs=(
                    self.dataset, self._replica, self.solver, self.eval_mode
                ),
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

    def _solve(self, tasks):
        self.ensure_started()
        groups = _split_by_work(
            [self._predicted_steps(task) for task in tasks], self._n_workers
        )
        messages = [[tasks[i] for i in group] for group in groups]
        updates: List[Optional["ClientUpdate"]] = [None] * len(tasks)
        for group, solved in zip(groups, self._pool.map(_solve_batch, messages)):
            for position, update in zip(group, solved):
                update.task = tasks[position]
                updates[position] = update
        # Under a device-side codec only encoded bytes crossed the pool
        # boundary (the lean IPC path); the comms stage decodes them.
        return updates

    # Evaluation --------------------------------------------------------- #
    def _sharding_pays(self, split: str, units: Sequence, cuts: List[int]) -> bool:
        """Whether a stacked census of ``units`` is cheaper cut at ``cuts``.

        Only where the workers read the split in place — anything else
        would concatenate a copy of the federation in every worker — and
        only when the cut takes enough work off the server, the longest
        share being what the server then waits for.
        """
        stack = self.evaluator.stack_in_place(split)
        if stack is None:
            return False
        longest = max(
            units[hi - 1][1] - units[lo][0] for lo, hi in zip(cuts, cuts[1:])
        )
        saved_rows = units[-1][1] - units[0][0] - longest
        return saved_rows * stack[0][0].size >= MIN_ELEMENTS_SAVED

    def _census_values(self, w: np.ndarray, split: str, units: Sequence) -> list:
        """The census values, on the workers where that pays.

        Contiguous near-equal shares of ``units``, one message per worker
        that has a core to run on (``w`` crosses once each, no rows do),
        the returned lists joined in unit order.  Per-client units always
        go to the pool.
        """
        shares = min(self._census_shares, len(units))
        cuts = [len(units) * i // shares for i in range(shares + 1)]
        if self.eval_mode == "stacked" and not self._sharding_pays(
            split, units, cuts
        ):
            return self.evaluator.values(w, split, units)
        self.ensure_started()
        messages = [(w, split, units[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        values: list = []
        for share in self._pool.map(_census_share, messages):
            values.extend(share)
        return values
