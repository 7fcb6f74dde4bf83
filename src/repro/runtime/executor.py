"""Round execution: one bounded-staleness scheduler over a solve backend.

The server loop (:class:`repro.core.server.FederatedTrainer`) describes
*what* happens each round — which devices are selected, which straggle, how
updates aggregate.  A :class:`RoundExecutor` decides *how* the round's local
solves run, in two layers:

* the **scheduler** — this class, concrete: Algorithm 2's loop on a
  simulated clock.  Each dispatch admits its tasks, delivers every check-in
  due this round in arrival order, stamps staleness and discount, passes
  the delivered batch through the comms stage once and expires what the
  next round could no longer accept.
* a **backend** — each subclass: how a batch of due tasks is solved
  (``_solve(tasks) -> updates``).  In process, one after another
  (:class:`SerialExecutor`); stacked (:class:`~repro.runtime.cohort.CohortExecutor`);
  on a worker pool (:class:`~repro.runtime.parallel.ParallelExecutor`,
  which also hands census shares to its workers: ``_share_values``).

The barrier engines (``serial``, ``cohort``, ``parallel``) are the
scheduler at its defaults: window 0, synchronized arrivals, no capacity.
Every task checks in the round it was sent and is delivered in task
order; nothing stays queued.
:class:`~repro.runtime.async_engine.AsyncExecutor` is the in-process
backend with the scheduler's fields settable.

Time model
----------
Simulated time is measured in aggregation rounds.  A task admitted at round
``r`` checks in at ``r + duration / period``, where ``duration`` is the
device's simulated round-trip from the shared
:class:`~repro.systems.clock.Clock` protocol (synchronized / seeded
log-normal / systems-model device profiles) and ``period`` is the clock's
aggregation cadence.  At round ``r`` the scheduler delivers every queued
check-in with arrival time ≤ ``r + 1``, in arrival order; an update
submitted at round ``s`` and delivered at round ``r`` has staleness
``r − s`` model versions.  Entries that would exceed the bounded-staleness
``window`` at the next round are discarded (counted, never aggregated), and
when a bounded in-flight ``capacity`` is set, check-ins beyond it are
rejected at admission — backpressure under churn.  Delivered updates carry
a multiplicative weight discount (``poly``: ``(1 + s)^(-power)``;
``const``: ``factor`` for any ``s > 0``; fresh updates are never
discounted), which the sampling scheme folds into its aggregation weights
(:meth:`repro.core.sampling.SamplingScheme.aggregate`).

Determinism contract
--------------------
A :class:`LocalTask` carries everything a solve depends on — the global
model, the proximal coefficient, the work budget, and the *entropy tuple*
``(seed, round, client, occurrence)`` from which the mini-batch generator
is derived.  Backends must run each task as a pure function of its task
description, so any two backends produce bit-identical
:class:`~repro.core.client.ClientUpdate` lists for the same task list,
regardless of worker count or scheduling order.  Every update carries the
task it answers as ``update.task`` from the moment a backend's ``_solve``
returns; the comms stage, the fault manager and the round diagnostics read
the pairing off the update and nothing else keeps one.  A backend returns
one update per task, in task order.  Every arrival time is a pure function
of ``(clock seed, round, device)``, so the whole schedule — admissions,
deliveries, discards, aggregation order — replays bit-identically from a
run-ledger manifest.

:meth:`RoundExecutor.bind` builds the run's one
:class:`~repro.core.client.ClientPool` (``executor.clients``), which the
backends solve on and the trainer reads as ``trainer.clients``.

Evaluation is dispatched through the executor as well (``train_loss`` /
``test_accuracy``): one census, whose per-unit values are cut into shares
by one rule (:meth:`RoundExecutor._census_cuts`) and computed on the
lanes — threads in process, workers in the parallel engine — and which
the bound :class:`FederationEvaluator` reduces in unit order, so
evaluation is also bit-stable across backends and lane counts.

Telemetry
---------
:meth:`RoundExecutor.bind` accepts a telemetry object (default: the shared
:data:`~repro.telemetry.NULL_TELEMETRY` no-op).  When a :class:`LocalTask`
asks for timing collection (``collect_timings=True``, set by the trainer
whenever telemetry is enabled), backends attach wall-clock phase payloads
to each :class:`~repro.core.client.ClientUpdate` (``update.timings``) —
plain floats that survive pickling, so
:class:`~repro.runtime.parallel.ParallelExecutor` worker spans cross the
process boundary and are re-emitted server-side.  The scheduler writes its
own events (``async:deliver`` / ``async:checkin`` spans, the
``async.queue_depth`` gauge, the ``async.staleness`` histogram) only when
its clock is not synchronized: under a synchronized clock each would
restate 0.  Counters of what did happen (``async.admission_reject``,
``async.discard``) are written whenever nonzero.  None of it influences the
schedule, so histories stay bit-identical whether telemetry is on or off.
"""

from __future__ import annotations

import abc
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.models import FaultDecision
from ..systems.clock import SynchronizedClock, resolve_clock
from ..systems.stragglers import entropy_rng
from ..telemetry import CLOCK_SIMULATED, NULL_TELEMETRY, UNIT_ROUNDS, resolve_telemetry
from .evaluation import FederationEvaluator, resolve_eval_mode

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from ..core.client import ClientPool, ClientUpdate
    from ..datasets.federated import FederatedDataset
    from ..models.base import FederatedModel
    from ..optim.base import LocalSolver


# A stacked census is cut into shares only when that takes at least this
# many feature values (rows x row width) off what the caller would
# otherwise compute alone: below it the hand-offs cost more than the
# other cores give back (measured crossovers in DESIGN.md §8).
MIN_ELEMENTS_SAVED = 1 << 21


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one (a container's cpuset), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_threads(calls: Sequence) -> list:
    """Each of ``calls``' results, in order: the first on the calling
    thread, every other on a thread of its own.

    The threads start and are joined here, so none outlives the call.  An
    exception a call raised is re-raised here, the first in call order,
    once every thread has finished.
    """
    results: list = [None] * len(calls)
    errors: list = [None] * len(calls)

    def run(i: int) -> None:
        try:
            results[i] = calls[i]()
        except BaseException as exc:
            errors[i] = exc

    started = []
    try:
        for i in range(1, len(calls)):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


@dataclass(frozen=True)
class LocalTask:
    """A self-contained description of one device's local solve.

    Attributes
    ----------
    client_id:
        Device to run (also its index in the federation's client list).
    w_global:
        Round-start global model ``w_t``.
    mu:
        Proximal coefficient of the local subproblem.
    epochs:
        Work budget from the systems model (fractional for stragglers).
    rng_entropy:
        Integer entropy ``(seed, round, client, occurrence)`` from which
        the mini-batch :class:`numpy.random.Generator` is derived — shipped
        instead of a generator so workers rebuild identical randomness.
    measure_gamma:
        Also measure the solve's γ-inexactness (Definition 2).
    correction:
        Optional FedDane linear correction vector.
    collect_timings:
        Attach wall-clock timing payloads to the resulting
        :class:`~repro.core.client.ClientUpdate` (set by the trainer when
        telemetry is enabled; off by default so the disabled path does no
        extra work).
    fault:
        Injected fault striking this solve (see :mod:`repro.faults`), or
        ``None`` for a healthy device.  Faults are part of the task
        description, so their effects — a crash's truncated budget, a
        corruption's noise stream — are pure functions of the task and
        identical on every executor.
    codec:
        Update codec (:class:`~repro.comms.codecs.Codec`) for the
        device-side encode fast path: when set, the solve's result ships
        back as an encoded :class:`~repro.comms.codecs.WirePayload`
        (``update.payload``) instead of a dense array, and the server
        decodes at finalize.  ``None`` (default, and always under error
        feedback) ships the dense iterate.  Encoding randomness derives
        from ``rng_entropy`` plus the comms salt, so payloads are
        bit-identical on every executor.
    """

    client_id: int
    w_global: np.ndarray
    mu: float
    epochs: float
    rng_entropy: Tuple[int, ...]
    measure_gamma: bool = False
    correction: Optional[np.ndarray] = None
    collect_timings: bool = False
    fault: Optional[FaultDecision] = None
    codec: Optional[object] = None


def task_rng(task: LocalTask) -> np.random.Generator:
    """The task's mini-batch generator, identical in any process."""
    return entropy_rng(*task.rng_entropy)


def task_round(task: LocalTask) -> Optional[int]:
    """The round index encoded in the task's entropy tuple, if present."""
    return int(task.rng_entropy[1]) if len(task.rng_entropy) >= 2 else None


def task_effective_epochs(task: LocalTask) -> float:
    """The work budget the task's solve executes, after any injected fault
    (:meth:`~repro.faults.models.FaultDecision.executed_epochs`)."""
    return task.epochs if task.fault is None else task.fault.executed_epochs(task.epochs)


def apply_update_fault(update: "ClientUpdate") -> None:
    """Apply the update's task's fault to its iterate, where the solve ran
    (:meth:`~repro.faults.models.FaultDecision.damage`)."""
    if update.task.fault is not None:
        update.task.fault.damage(update.w, update.task.rng_entropy)


def solve_with_timings(clients: "ClientPool", task: LocalTask) -> "ClientUpdate":
    """Run one task on its device of ``clients``, honoring its timing and
    fault fields.

    The shared solve path for :class:`SerialExecutor` and the parallel
    workers: when ``task.collect_timings`` is set, the update's
    ``timings`` dict records the solve's wall-clock duration (pure
    floats, so the payload pickles across the process boundary).  Injected
    faults are honored here too — crashes truncate the executed budget,
    corruption damages the delivered iterate — so the parallel workers
    reproduce fault effects without server-side post-processing.
    """
    t0 = time.perf_counter() if task.collect_timings else 0.0
    update = clients.local_solve(
        task.client_id,
        w_global=task.w_global,
        mu=task.mu,
        epochs=task_effective_epochs(task),
        rng=task_rng(task),
        correction=task.correction,
        measure_gamma=task.measure_gamma,
    )
    update.task = task
    apply_update_fault(update)
    if task.collect_timings:
        update.timings = {"solve": time.perf_counter() - t0}
    if task.codec is not None:
        # Device-side encode: the iterate ships back as one contiguous
        # wire buffer.  Runs after the fault is applied so corruption damage
        # is part of what gets encoded, exactly as on a real device.
        t1 = time.perf_counter() if task.collect_timings else 0.0
        update.payload = task.codec.encode_update(
            update.w, task.w_global, task.rng_entropy
        )
        update.w = None
        if task.collect_timings:
            update.timings["comm_encode"] = time.perf_counter() - t1
            update.timings["payload_bytes"] = float(update.payload.nbytes)
    return update


@dataclass(frozen=True)
class _QueuedCheckin:
    """One admitted local solve awaiting delivery."""

    arrival: float  #: simulated check-in time, in round units
    task: LocalTask  #: names the round whose model version it solves against

    @property
    def submit_round(self) -> int:
        return task_round(self.task)


class RoundExecutor(abc.ABC):
    """The round scheduler, over the solve backend a subclass provides.

    Lifecycle: the trainer calls :meth:`bind` once with the federation,
    shared model, solver and the run's environment; afterwards
    :meth:`begin_round`, :meth:`run_local_solves`, :meth:`train_loss` and
    :meth:`test_accuracy` may be called every round.  Executors owning
    external resources release them in :meth:`close` (also invoked by the
    context-manager protocol).
    """

    #: Scheduler fields (module docstring), at the barrier engines' values;
    #: :class:`~repro.runtime.async_engine.AsyncExecutor` sets them from its
    #: spec.  Names and defaults are
    #: :data:`~repro.runtime.ASYNC_GRAMMAR`'s.
    window: int = 0
    discount: str = "poly"
    discount_power: float = 1.0
    discount_factor: float = 0.5
    capacity: int = 0
    arrivals: str = "synchronized"
    latency: float = 1.0
    jitter: float = 0.5
    clock_seed: Optional[int] = None

    def __init__(self) -> None:
        self.dataset: Optional["FederatedDataset"] = None
        self.model: Optional["FederatedModel"] = None
        self.solver: Optional["LocalSolver"] = None
        self.clients: Optional["ClientPool"] = None
        self.eval_mode: str = "per_client"
        self.evaluator: Optional[FederationEvaluator] = None
        self.telemetry = NULL_TELEMETRY
        self._comms = None
        # Admitted check-ins in admission order (every filter keeps it).
        self._queue: List[_QueuedCheckin] = []
        self._round: Optional[int] = None
        # A census cuts no more shares than there are cores to run them.
        self._census_shares = _usable_cores()

    # Lifecycle ---------------------------------------------------------- #
    def bind(
        self,
        dataset: "FederatedDataset",
        model: "FederatedModel",
        solver: "LocalSolver",
        eval_mode: str = "auto",
        telemetry=None,
        systems=None,
        seed: int = 0,
        comms=None,
    ) -> None:
        """Attach the executor to a federation and start an empty schedule.

        Parameters
        ----------
        dataset, model, solver:
            The federation's data, shared model oracle, and local solver;
            the executor's :attr:`clients` is the run's one
            :class:`~repro.core.client.ClientPool` over them.
        eval_mode:
            Evaluation strategy (see :mod:`repro.runtime.evaluation`);
            ``"auto"`` resolves against the model's capability.
        telemetry:
            Instrumentation for executor-internal spans (cohort phase
            splits, evaluator oracle calls, the scheduler's events);
            defaults to the shared no-op :data:`~repro.telemetry.NULL_TELEMETRY`.
        systems, seed:
            The run's simulated environment, which the arrival clock
            resolves against: ``arrivals="systems"`` reads a
            :class:`~repro.systems.clock.ClockDrivenSystems` model's device
            profiles (a labeled error without one), and the seeded clock
            draws from ``seed`` unless ``clock_seed`` pins it — which is
            what makes ledger replay re-derive identical traffic.
        comms:
            The trainer's update-compression manager, or ``None``.  Every
            delivered batch is round-tripped through it, so downstream
            consumers — the fault manager's finiteness quarantine first
            among them — only ever see decoded dense updates.

        Check-ins a previous run left in flight are dropped: a bound
        executor starts with an empty queue and no announced round.
        """
        from ..core.client import ClientPool  # deferred: core imports runtime

        self.clock = resolve_clock(
            self.arrivals,
            systems,
            seed=int(seed) if self.clock_seed is None else self.clock_seed,
            latency=self.latency,
            jitter=self.jitter,
        )
        self.dataset = dataset
        self.model = model
        self.solver = solver
        self.telemetry = resolve_telemetry(telemetry)
        self._comms = comms
        self._queue = []
        self._round = None
        self.clients = ClientPool(dataset, model, solver)
        self.eval_mode = resolve_eval_mode(
            model, eval_mode, lazy=bool(getattr(dataset, "is_lazy", False))
        )
        self.evaluator = FederationEvaluator(
            self.clients,
            model,
            eval_mode=self.eval_mode,
            telemetry=self.telemetry,
        )
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for backends needing extra setup after :meth:`bind`."""

    def begin_round(self, round_idx: int) -> None:
        """Note that round ``round_idx`` is starting.

        The round the scheduler delivers in: what a late check-in's
        staleness is measured against and what the comms stage books its
        events to — also on rounds that contribute no new tasks (mass
        churn, total crash).
        """
        self._round = int(round_idx)

    def spec(self) -> str:
        """The executor spec string reconstructing this executor.

        The inverse of :func:`repro.runtime.make_executor` — what the run
        ledger serializes so replay rebuilds an identically-parameterized
        engine.
        """
        name = type(self).__name__
        if name.endswith("Executor"):
            name = name[: -len("Executor")]
        return name.lower()

    def ensure_started(self) -> None:
        """Eagerly acquire any lazy resources (worker pools); idempotent."""

    def close(self) -> None:
        """Release executor-owned resources; the executor stays bound."""

    def __enter__(self) -> "RoundExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def n_workers(self) -> int:
        """Degree of parallelism (1 for in-process execution)."""
        return 1

    @property
    def queue_depth(self) -> int:
        """Check-ins currently in flight (admitted, not yet delivered)."""
        return len(self._queue)

    def _require_bound(self) -> None:
        if self.evaluator is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound; call bind() first "
                "(FederatedTrainer does this automatically)"
            )

    def discount_weight(self, staleness: int) -> float:
        """Multiplicative aggregation discount for a given staleness."""
        if staleness <= 0:
            return 1.0
        if self.discount == "poly":
            return float((1.0 + staleness) ** (-self.discount_power))
        return self.discount_factor

    # Round work --------------------------------------------------------- #
    def run_local_solves(self, tasks: Sequence[LocalTask]) -> List["ClientUpdate"]:
        """Admit ``tasks``; the updates delivered this round, decoded.

        The one entry point of every engine (the fault manager calls it
        once per wave): admission, delivery through the backend's
        :meth:`_solve`, the comms stage, expiry.  On a barrier engine the
        delivered updates are every task's, in task order.
        """
        self._require_bound()
        # The round being delivered in is the one the trainer announced
        # (begin_round) — a retry of a late check-in keeps its submit-round
        # entropy, so a dispatch's tasks need not name it.  Only a
        # standalone caller that never announces one is read off its tasks.
        if self._round is not None:
            round_idx = self._round
        else:
            round_idx = task_round(tasks[0]) if tasks else 0
        rejected = self._admit(tasks, round_idx)
        updates = self._deliver(round_idx, len(tasks), rejected)
        if self._comms is not None:
            # Each update is decoded against its *own* submit-round model,
            # which the task it carries holds.
            self._comms.finalize_round(
                updates, telemetry=self.telemetry, round_idx=round_idx
            )
        self._expire(round_idx, updates)
        return updates

    def _admit(self, tasks: Sequence[LocalTask], round_idx: int) -> int:
        """Queue each task's check-in at its arrival time; the count rejected.

        A bounded queue rejects the overflow (the device's work is lost,
        exactly as if the sampler had dropped it).  Compression shortens
        the simulated *upload* leg by the codec's exact predicted wire
        ratio (the downlink stays dense — the server broadcasts the
        uncompressed model), so smaller payloads arrive earlier.  A ratio
        of exactly 1.0 gives ``DeviceTiming.total`` bit-for-bit.
        """
        upload_ratio = 1.0
        if self._comms is not None and tasks:
            upload_ratio = self._comms.upload_ratio(tasks[0].w_global.shape[0])
        period = self.clock.period or 1.0
        admitted = rejected = 0
        for task in tasks:
            if self.capacity > 0 and len(self._queue) >= self.capacity:
                rejected += 1
                continue
            timing = self.clock.timing(round_idx, task.client_id, task.epochs)
            duration = timing.download + timing.compute + timing.upload * upload_ratio
            self._queue.append(_QueuedCheckin(round_idx + duration / period, task))
            admitted += 1
        if self._comms is not None and admitted:
            # The downlink is booked here, once: every admitted device
            # received the model broadcast, a later-discarded one too.
            self._comms.record_dispatch(
                admitted, tasks[0].w_global.shape[0],
                telemetry=self.telemetry, round_idx=round_idx,
            )
        if rejected:
            self.telemetry.metric(
                "async.admission_reject", rejected, round_idx=round_idx,
                kind="counter",
            )
        return rejected

    def _deliver(
        self, round_idx: int, submitted: int, rejected: int
    ) -> List["ClientUpdate"]:
        """Solve every check-in arriving within this round, in arrival order.

        The sort is stable over the queue's admission order, so that breaks
        ties and synchronized arrivals reduce to task order.  Solves run at
        delivery; each update is a pure function of its task, so the
        deferral cannot perturb results.
        """
        horizon = round_idx + 1
        due = sorted(
            (e for e in self._queue if e.arrival <= horizon),
            key=lambda e: e.arrival,
        )
        if due:
            self._queue = [e for e in self._queue if e.arrival > horizon]
        telemetry = self.telemetry
        observed = not isinstance(self.clock, SynchronizedClock)
        span = (
            telemetry.span(
                "async:deliver", round_idx=round_idx,
                submitted=submitted, due=len(due), rejected=rejected,
            )
            if observed
            else nullcontext()
        )
        with span:
            updates = self._solve([entry.task for entry in due]) if due else []
            for entry, update in zip(due, updates):
                update.staleness = round_idx - entry.submit_round
                update.discount = self.discount_weight(update.staleness)
                if observed:
                    telemetry.record_span(
                        "async:checkin",
                        entry.arrival - entry.submit_round,
                        round_idx=round_idx,
                        clock=CLOCK_SIMULATED,
                        unit=UNIT_ROUNDS,
                        client_id=entry.task.client_id,
                        staleness=update.staleness,
                    )
        return updates

    def _expire(self, round_idx: int, updates: List["ClientUpdate"]) -> None:
        """Discard what the next round could no longer accept; report the queue."""
        telemetry = self.telemetry
        keep = [
            e for e in self._queue if (round_idx + 1) - e.submit_round <= self.window
        ]
        discarded = len(self._queue) - len(keep)
        self._queue = keep
        if discarded:
            telemetry.metric(
                "async.discard", discarded, round_idx=round_idx, kind="counter"
            )
        if isinstance(self.clock, SynchronizedClock):
            return
        telemetry.metric("async.queue_depth", len(self._queue), round_idx=round_idx)
        if updates:
            telemetry.histogram(
                "async.staleness",
                [float(update.staleness) for update in updates],
                round_idx=round_idx,
            )

    @abc.abstractmethod
    def _solve(self, tasks: Sequence[LocalTask]) -> List["ClientUpdate"]:
        """The backend: one update per due task, in task order.

        ``tasks`` is never empty; each update names the task it answers
        (``update.task``).
        """

    # Evaluation --------------------------------------------------------- #
    #: Whether a per-client census is cut into shares too.  In process it
    #: is not: a share would read devices through the store on its own
    #: thread.
    _census_cuts_devices = False

    @property
    def _census_minimum(self) -> int:
        """The feature values a cut must save: :data:`MIN_ELEMENTS_SAVED`."""
        return MIN_ELEMENTS_SAVED

    def _census_cuts(self, split: str, units: Sequence) -> Optional[List[int]]:
        """Where a census of ``units`` is cut into shares, or ``None``.

        Contiguous near-equal shares, one per lane that has a core to run
        on.  A stacked census is cut only where the store owns its stacked
        split as arrays (:meth:`FederationEvaluator.stack_in_place`: every
        lane reads it in place) and the cut takes at least
        :attr:`_census_minimum` feature values off the longest share,
        which the caller then waits for.
        """
        shares = min(self._census_shares, len(units))
        if shares < 2:
            return None
        cuts = [len(units) * i // shares for i in range(shares + 1)]
        if self.eval_mode != "stacked":
            return cuts if self._census_cuts_devices else None
        stack = self.evaluator.stack_in_place(split)
        if stack is None:
            return None
        longest = max(
            units[hi - 1][1] - units[lo][0] for lo, hi in zip(cuts, cuts[1:])
        )
        saved_rows = units[-1][1] - units[0][0] - longest
        return cuts if saved_rows * stack[0][0].size >= self._census_minimum else None

    def _census_values(self, w: np.ndarray, split: str, units: Sequence) -> list:
        """The census values: the shares of :meth:`_census_cuts` through
        :meth:`_share_values`, joined in unit order, or
        :meth:`FederationEvaluator.values` on the calling thread."""
        cuts = self._census_cuts(split, units)
        if cuts is None:
            return self.evaluator.values(w, split, units)
        values: list = []
        for share in self._share_values(
            w, split, [units[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
        ):
            values.extend(share)
        return values

    def _share_values(self, w: np.ndarray, split: str, shares: list) -> list:
        """Each share's census values, in share order.

        In process: the model is set to ``w`` once, then the first share
        runs on the calling thread and every other on a thread of its own
        (:func:`_on_threads`), each through
        :meth:`FederationEvaluator.unit_values`, which writes nothing.
        """
        evaluator = self.evaluator
        evaluator.model.set_params(w)
        return _on_threads(
            [partial(evaluator.unit_values, split, share) for share in shares]
        )

    def train_loss(self, w: np.ndarray) -> float:
        """Global objective ``f(w)`` over the bound federation."""
        self._require_bound()
        return self.evaluator.census(w, "train", self._census_values)

    def test_accuracy(self, w: np.ndarray) -> float:
        """Sample-weighted global test accuracy over the bound federation."""
        self._require_bound()
        return self.evaluator.census(w, "test", self._census_values)


class SerialExecutor(RoundExecutor):
    """The in-process backend: due tasks solved one after another.

    Local solves run against the trainer's shared model; evaluation is the
    bound :class:`FederationEvaluator`'s (which still takes the stacked
    fast path when the model supports it).
    """

    def _solve(self, tasks):
        return [solve_with_timings(self.clients, task) for task in tasks]
