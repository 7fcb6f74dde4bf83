"""Multiprocess round execution: the server and its workers as lanes.

:class:`ParallelExecutor` runs each round's :class:`~repro.runtime.executor.LocalTask`
batch on ``n_workers`` *lanes*.  Lane 0 is the server itself; lanes
``1..n_workers-1`` are persistent worker processes, each reached over one
duplex pipe.  Workers are initialized *once* with the whole federation —
each holds its own model replica (obtained from
:meth:`~repro.models.base.FederatedModel.spawn_replica`), the local solver,
and its own :class:`~repro.core.client.ClientPool` over the federation — so
per round only task descriptions (global model vector, coefficients, seed
entropy) cross the process boundary.  Datasets are never re-pickled per
round.

One message per worker per round: a batch is split into at most
``n_workers`` groups of near-equal predicted work; the server sends every
worker its group as one pickled list, solves its own group in process,
then reads the replies — one list of updates each.  Inside a message every
array the tasks share — the round's ``w_global`` above all — is written
once and referenced by the other tasks (pickle memoizes by object
identity), so the dense model crosses the boundary once per worker, not
once per task.

The census runs on the lanes too, cut by the rule every engine shares
(:meth:`~repro.runtime.executor.RoundExecutor._census_cuts`: contiguous
shares of the blocks of a stacked split the store owns as arrays, where
the cut saves at least :data:`MIN_ELEMENTS_SAVED` feature values).  Only
the hand-off is this engine's: every lane holds the rows, so a worker
computes its share's values with its own replica through a worker-side
:class:`~repro.runtime.evaluation.FederationEvaluator`, and the server
joins the values in unit order and runs the one reduction.  One message
per worker per call: ``w``, the split name and the share's bounds go
down, plain Python numbers come back, no row ever crosses.  Unlike the
in-process engines' threads, the workers read devices themselves, so a
per-client census is cut too.

Determinism: a task is a pure function of its description (the mini-batch
generator is rebuilt from the task's entropy tuple wherever it runs), task
results are returned in task order whichever lane ran them, and a census
value is a pure function of ``w`` and its rows, computed by the same code
over the same bytes and reduced on the server in the same order as the
serial path — so training histories are bit-identical to
:class:`SerialExecutor` at every lane count.

Fault injection rides the same mechanism: an injected
:class:`~repro.faults.models.FaultDecision` is part of the
:class:`~repro.runtime.executor.LocalTask` a lane receives, and the lane
applies its effects (crash budget truncation, corruption noise) through the
shared :func:`~repro.runtime.executor.solve_with_timings` path — so fault
outcomes are bit-identical to in-process execution.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
import warnings
import weakref
from multiprocessing.util import register_after_fork
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

import numpy as np

from ..optim.base import BatchSchedule
from .evaluation import FederationEvaluator
from .executor import (
    MIN_ELEMENTS_SAVED,
    LocalTask,
    RoundExecutor,
    _usable_cores,
    solve_with_timings,
    task_effective_epochs,
)

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from ..core.client import ClientPool, ClientUpdate


# Per-worker-process state, populated once by _init_worker.
_WORKER: dict = {}

# One-time oversubscription warning (per process); see _warn_oversubscribed.
_OVERSUBSCRIPTION_WARNED = False


def _warn_oversubscribed(requested: int, available: int) -> None:
    """Warn once when more lanes are requested than cores exist.

    A round is split into one share per lane, so lanes beyond the core
    count take turns on the same cores: the solves run no sooner and
    every extra lane adds a hand-off.  Flag the configuration instead of
    silently running slower than one that fits the host.
    """
    global _OVERSUBSCRIPTION_WARNED
    if _OVERSUBSCRIPTION_WARNED:
        return
    _OVERSUBSCRIPTION_WARNED = True
    warnings.warn(
        f"ParallelExecutor: {requested} lanes requested but only "
        f"{available} CPU core(s) are usable; the extra lanes of an "
        "oversubscribed executor share cores and only add process hand-offs. "
        "Use n_workers='auto' to match the usable core count.",
        RuntimeWarning,
        stacklevel=3,
    )


def _init_worker(dataset, model, solver, eval_mode) -> None:
    """Build this worker's client pool (runs once per worker process).

    The pool reads devices through the dataset's store: a packed store's
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


def _solve_task(clients: "ClientPool", task: LocalTask) -> "ClientUpdate":
    """Run one local solve on a lane, as the reply will carry it.

    Timing payloads (when the task asks for them) are measured on the
    lane's own clock and ride back on the update as plain floats, stamped
    with the lane's pid — the server re-emits them as ``solve:client``
    spans, which is how worker spans survive the process boundary.
    """
    update = solve_with_timings(clients, task)
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


def _solve_batch(clients: "ClientPool", tasks: List[LocalTask]) -> List["ClientUpdate"]:
    """Run one lane's share of a round: one message in, one message out."""
    return [_solve_task(clients, task) for task in tasks]


def _reply(message: tuple) -> tuple:
    """A worker's answer to one ``(kind, payload)`` message.

    ``(True, result)``, or ``(False, (exception, traceback text))`` when
    the solve or census block raised — the worker lives on.
    """
    kind, payload = message
    try:
        if kind == "solve":
            return True, _solve_batch(_WORKER["clients"], payload)
        return True, _WORKER["evaluator"].values(*payload)
    except Exception as exc:
        return False, (exc, traceback.format_exc())


def _serve(conn, dataset, model, solver, eval_mode) -> None:
    """A worker process: build its state once, then answer each message
    until the server closes its end of the pipe."""
    _init_worker(dataset, model, solver, eval_mode)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        reply = _reply(message)
        try:
            conn.send(reply)
        except OSError:  # the server has gone
            return
        except Exception as exc:  # the reply does not pickle
            conn.send((False, (RuntimeError(repr(exc)), traceback.format_exc())))


class _RemoteTraceback(Exception):
    """A worker's traceback, chained to the exception it raised."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


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


class _Worker:
    """One worker lane: its process and the server's end of its pipe."""

    def __init__(self, context, init_args: tuple) -> None:
        self.conn, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_serve, args=(child, *init_args), daemon=True
        )
        # A forked process closes its inherited copy of the server's end, so
        # the worker reads EOF once the server closes it ...
        register_after_fork(self.conn, lambda conn: conn.close())
        self.process.start()
        # ... and only the worker holds its end, so its death reads as EOF.
        child.close()

    def _lost(self) -> RuntimeError:
        self.process.terminate()
        self.process.join()
        return RuntimeError(
            f"ParallelExecutor: worker process {self.process.pid} exited "
            f"(code {self.process.exitcode}) without replying"
        )

    def send(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except OSError as exc:
            raise self._lost() from exc

    def recv(self) -> tuple:
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._lost() from exc

    def stop(self, kill: bool) -> None:
        self.conn.close()
        if kill:
            self.process.terminate()
        self.process.join()


def _stop(workers: List[_Worker], kill: bool = False) -> None:
    """Stop worker processes; stopping a stopped one does nothing."""
    for worker in workers:
        worker.stop(kill)


class ParallelExecutor(RoundExecutor):
    """The multiprocess backend: due tasks solved on ``n_workers`` lanes.

    Parameters
    ----------
    n_workers:
        Lane count: the server plus ``n_workers - 1`` worker processes, so
        ``1`` starts no process and runs everything on the server.
        ``None`` or ``"auto"`` is one lane per core this process may run
        on (its CPU affinity, e.g. a container's cpuset, where the
        platform reports one; else ``os.cpu_count()``) — one busy process
        per usable core.  Requesting more lanes than that emits a one-time
        ``RuntimeWarning`` (oversubscribed lanes are overhead-bound).
    start_method:
        Multiprocessing start method (``"fork"`` where available, else
        ``"spawn"``).  Results are identical either way; ``"fork"`` starts
        faster and shares the federation's memory copy-on-write.

    Each delivered batch sends every worker at most one message: the tasks
    are split by longest-processing-time-first over their predicted
    mini-batch step counts (known before any solve runs, from the store's
    size metadata and the task's effective epochs), the server keeps the
    heaviest group (a worker pays a wake-up before it starts), and the
    updates are put back in task order.  Retry waves and batches that mix
    several ``w_global`` arrays take the same path.

    A census (:meth:`train_loss`, :meth:`test_accuracy`) sends every
    worker at most one message as well (module docstring): the lanes
    compute its per-unit values (:meth:`_share_values`), the server
    reduces them.

    Workers start lazily on first use (or via :meth:`ensure_started`) and
    are stopped by :meth:`close`; a worker that dies mid-call raises and
    stops them all, and the next call starts fresh ones.  Binding a model
    without a :meth:`~repro.models.base.FederatedModel.spawn_replica`
    implementation raises ``TypeError`` immediately — parallel execution
    never silently degrades to serial.
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
        # no benchmark workload runs more lanes than cores.
        self._census_shares = min(resolved, available)
        self.start_method = start_method
        self._replica = None
        self._workers: Optional[List[_Worker]] = None

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
        self.close()  # re-bound to a new federation

    def ensure_started(self) -> None:
        self._require_bound()
        if self._workers is None:
            context = mp.get_context(self.start_method)
            init_args = (self.dataset, self._replica, self.solver, self.eval_mode)
            self._workers = [
                _Worker(context, init_args) for _ in range(self._n_workers - 1)
            ]
            # Workers of an executor dropped without close() stop with it.
            weakref.finalize(self, _stop, self._workers)

    def close(self) -> None:
        self._release()

    def _release(self, kill: bool = False) -> None:
        workers, self._workers = self._workers, None
        if workers is not None:
            _stop(workers, kill)

    def _exchange(self, kind: str, payloads: list, own: Callable) -> list:
        """Every lane's result, in lane order: ``own(payloads[0])`` on the
        server, ``payloads[i]`` answered by worker ``i``.

        Every message goes out before the server starts its own share, and
        every reply is read before an exception a lane raised is re-raised,
        so the pipes stay in step and the workers outlive it.  A worker
        that dies instead of replying stops all of them and raises.
        """
        workers: list = []
        if len(payloads) > 1:
            self.ensure_started()
            workers = self._workers[: len(payloads) - 1]
        failure = None
        try:
            for worker, payload in zip(workers, payloads[1:]):
                worker.send((kind, payload))
            try:
                results = [own(payloads[0])]
            except Exception as exc:
                results, failure = [None], exc
            for worker in workers:
                ok, value = worker.recv()
                results.append(value if ok else None)
                if not ok and failure is None:
                    failure, remote = value
                    failure.__cause__ = _RemoteTraceback(remote)
        except BaseException:
            self._release(kill=True)
            raise
        if failure is not None:
            raise failure
        return results

    # Round work --------------------------------------------------------- #
    def _predicted_steps(self, task: LocalTask) -> int:
        """Mini-batch steps the task's solve will take (no data touched)."""
        n_train = int(self.dataset.train_sizes[task.client_id])
        batch_size = getattr(self.solver, "batch_size", n_train)
        return BatchSchedule(
            n_train, batch_size, task_effective_epochs(task)
        ).total

    def _solve(self, tasks):
        costs = [self._predicted_steps(task) for task in tasks]
        groups = _split_by_work(costs, self._n_workers)
        groups.sort(key=lambda group: -sum(costs[i] for i in group))
        solved = self._exchange(
            "solve",
            [[tasks[i] for i in group] for group in groups],
            lambda mine: _solve_batch(self.clients, mine),
        )
        updates: List[Optional["ClientUpdate"]] = [None] * len(tasks)
        for group, share in zip(groups, solved):
            for position, update in zip(group, share):
                update.task = tasks[position]
                updates[position] = update
        # Under a device-side codec only encoded bytes crossed the process
        # boundary (the lean IPC path); the comms stage decodes them.
        return updates

    # Evaluation --------------------------------------------------------- #
    # Every lane holds the federation, so a per-client census is cut too.
    _census_cuts_devices = True

    @property
    def _census_minimum(self) -> int:
        # Read through this module, so lowering ``parallel.MIN_ELEMENTS_SAVED``
        # reaches this engine (as it does in the parallel census tests).
        return MIN_ELEMENTS_SAVED

    def _share_values(self, w: np.ndarray, split: str, shares: list) -> list:
        """Each share's census values, in share order: the first on the
        server, one message per worker for the rest (``w`` crosses once
        each, no rows do)."""
        return self._exchange(
            "census",
            [(w, split, share) for share in shares],
            lambda mine: self.evaluator.values(*mine),
        )
