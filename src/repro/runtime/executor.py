"""Pluggable round execution: how one round's local solves actually run.

The server loop (:class:`repro.core.server.FederatedTrainer`) describes
*what* happens each round — which devices are selected, which straggle, how
updates aggregate.  A :class:`RoundExecutor` decides *how* the resulting
batch of independent local solves is executed: in-process and sequential
(:class:`SerialExecutor`, the default) or fanned out across persistent
worker processes (:class:`~repro.runtime.parallel.ParallelExecutor`).

Determinism contract
--------------------
A :class:`LocalTask` carries everything a solve depends on — the global
model, the proximal coefficient, the work budget, and the *entropy tuple*
``(seed, round, client, occurrence)`` from which the mini-batch generator
is derived.  Executors must run each task as a pure function of its task
description, so any two executors produce bit-identical
:class:`~repro.core.client.ClientUpdate` lists for the same task list,
regardless of worker count or scheduling order.  Every update carries the
task it answers as ``update.task`` from the moment an engine's ``_solve``
returns; the comms stage, the fault manager and the round diagnostics read
the pairing off the update and nothing else keeps one.  A barrier engine
returns one update per task, in task order.

Evaluation is dispatched through the executor as well (``train_loss`` /
``test_accuracy``); both built-in executors reduce per-client metrics in
device order with shared reduction code, so evaluation is also bit-stable
across executors.

Telemetry
---------
:meth:`RoundExecutor.bind` accepts a telemetry object (default: the shared
:data:`~repro.telemetry.NULL_TELEMETRY` no-op).  When a
:class:`~repro.runtime.executor.LocalTask` asks for timing collection
(``collect_timings=True``, set by the trainer whenever telemetry is
enabled), executors attach wall-clock phase payloads to each
:class:`~repro.core.client.ClientUpdate` (``update.timings``) — plain
floats that survive pickling, so :class:`~repro.runtime.parallel.ParallelExecutor`
worker spans cross the process boundary and are re-emitted server-side.
Timings never influence the solve itself, so histories stay bit-identical
whether telemetry is on or off.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.models import FaultDecision
from ..telemetry import NULL_TELEMETRY, resolve_telemetry
from .evaluation import FederationEvaluator, resolve_eval_mode

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from ..core.client import Client, ClientUpdate
    from ..datasets.federated import FederatedDataset
    from ..models.base import FederatedModel
    from ..optim.base import LocalSolver

# Entropy salt deriving a corruption noise stream from a task's entropy
# tuple — disjoint from the mini-batch stream so injecting a corruption
# fault never perturbs the batch order of the solve it corrupts.
_CORRUPTION_SALT = 0xC0FF


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
    return np.random.default_rng(np.random.SeedSequence(list(task.rng_entropy)))


def task_round(task: LocalTask) -> Optional[int]:
    """The round index encoded in the task's entropy tuple, if present."""
    return int(task.rng_entropy[1]) if len(task.rng_entropy) >= 2 else None


def task_effective_epochs(task: LocalTask) -> float:
    """The work budget actually executed, after any injected crash.

    A crash fault truncates the *executed* budget to the drawn fraction of
    the intended epochs — the device checkpointed that much work before
    failing.  All executors derive the budget through this helper, so a
    crashed solve performs identical work (and consumes identical batch
    entropy) everywhere.
    """
    if task.fault is not None and task.fault.kind == "crash":
        return task.epochs * task.fault.fraction
    return task.epochs


def apply_update_fault(update: "ClientUpdate") -> None:
    """Apply the corruption fault of the update's task, if it carries one.

    Runs where the solve ran (serial in-process, inside a parallel worker,
    or in the cohort finalize loop).  Corruption noise derives from the
    task's entropy tuple plus a dedicated salt, so the damage is
    bit-identical on every executor and across process boundaries.
    """
    task = update.task
    fault = task.fault
    if fault is not None and fault.kind == "corrupt":
        rng = np.random.default_rng(
            np.random.SeedSequence(list(task.rng_entropy) + [_CORRUPTION_SALT])
        )
        w = update.w
        if fault.mode == "nan":
            # Poison ~10% of coordinates (at least one) with NaNs: loud,
            # detectable damage the quarantine guard is meant to catch.
            k = max(1, w.size // 10)
            w[rng.choice(w.size, size=k, replace=False)] = np.nan
        else:  # "noise": silent damage at `scale` times the update's RMS
            rms = float(np.sqrt(np.mean(w * w)))
            w += fault.scale * (rms or 1.0) * rng.standard_normal(w.size)


def solve_with_timings(client: "Client", task: LocalTask) -> "ClientUpdate":
    """Run one task on a client, honoring its timing and fault fields.

    The shared solve path for :class:`SerialExecutor` and the parallel
    workers: when ``task.collect_timings`` is set, the update's
    ``timings`` dict records the solve's wall-clock duration (pure
    floats, so the payload pickles across the process boundary).  Injected
    faults are honored here too — crashes truncate the executed budget,
    corruption damages the delivered iterate — so the parallel workers
    reproduce fault effects without server-side post-processing.
    """
    t0 = time.perf_counter() if task.collect_timings else 0.0
    update = client.local_solve(
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


class RoundExecutor(abc.ABC):
    """Executes batches of local solves and federation-level evaluation.

    Lifecycle: the trainer calls :meth:`bind` once with the federation,
    shared model, and solver, then :meth:`configure_environment` with the
    run's systems model and seed; afterwards :meth:`begin_round`,
    :meth:`run_local_solves`, :meth:`train_loss` and :meth:`test_accuracy`
    may be called every round.  Executors owning external resources release
    them in :meth:`close` (also invoked by the context-manager protocol).
    """

    #: Continuous engines (``AsyncExecutor``) carry undelivered work across
    #: rounds and account their downlink at admission; a barrier engine
    #: with no tasks has nothing to do.
    continuous: bool = False

    #: Update-compression manager shared by the trainer, and the round the
    #: trainer last announced (class defaults so subclasses that skip
    #: ``super().__init__()`` still read ``None``).
    _comms = None
    _round: Optional[int] = None

    def __init__(self) -> None:
        self.dataset: Optional["FederatedDataset"] = None
        self.model: Optional["FederatedModel"] = None
        self.solver: Optional["LocalSolver"] = None
        self.clients: List["Client"] = []
        self.eval_mode: str = "per_client"
        self.evaluator: Optional[FederationEvaluator] = None
        self.telemetry = NULL_TELEMETRY
        self._comms = None

    # Lifecycle ---------------------------------------------------------- #
    def bind(
        self,
        dataset: "FederatedDataset",
        model: "FederatedModel",
        solver: "LocalSolver",
        clients: Optional[Sequence["Client"]] = None,
        eval_mode: str = "auto",
        label: str = "",
        telemetry=None,
    ) -> None:
        """Attach the executor to a federation.

        Parameters
        ----------
        dataset, model, solver:
            The federation's data, shared model oracle, and local solver.
        clients:
            Prebuilt client list to share with the caller; built from the
            dataset when omitted.
        eval_mode:
            Evaluation strategy (see :mod:`repro.runtime.evaluation`);
            ``"auto"`` resolves against the model's capability.
        label:
            Federation display name for error messages.
        telemetry:
            Instrumentation for executor-internal spans (cohort phase
            splits, evaluator oracle calls); defaults to the shared
            no-op :data:`~repro.telemetry.NULL_TELEMETRY`.
        """
        from ..core.client import ClientPool  # deferred: core imports runtime

        self.dataset = dataset
        self.model = model
        self.solver = solver
        self.telemetry = resolve_telemetry(telemetry)
        # Client access always resolves through the dataset's store: a
        # ClientPool passes through untouched (it already routes through
        # the store's cache), a prebuilt plain sequence is copied as
        # before, and with nothing given we build the pool ourselves —
        # eager datasets get the historical prebuilt list, lazy stores get
        # transient per-access clients.
        if clients is None:
            self.clients = ClientPool(dataset, model, solver)
        elif isinstance(clients, ClientPool):
            self.clients = clients
        else:
            self.clients = list(clients)
        self.eval_mode = resolve_eval_mode(
            model, eval_mode, lazy=bool(getattr(dataset, "is_lazy", False))
        )
        self.evaluator = FederationEvaluator(
            self.clients,
            model,
            eval_mode=self.eval_mode,
            label=label,
            telemetry=self.telemetry,
        )
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for subclasses needing extra setup after :meth:`bind`."""

    def configure_environment(
        self, systems=None, seed: int = 0, epochs: float = 0.0
    ) -> None:
        """Receive the run's simulated environment (systems model, seed).

        Called by the trainer once after :meth:`bind`.  Synchronous
        executors ignore it; the async engine resolves its arrival clock
        here (the systems model's device profiles can drive check-in
        times, and the trainer seed keeps simulated latency reproducible).
        """

    def begin_round(self, round_idx: int) -> None:
        """Note that round ``round_idx`` is starting.

        The round this engine delivers in: what a late check-in's staleness
        is measured against and what the comms stage books its events to —
        also on rounds that contribute no new tasks (mass churn, total crash).
        """
        self._round = int(round_idx)

    def configure_comms(self, comms) -> None:
        """Receive the trainer's update-compression manager (or ``None``).

        Called by the trainer once after :meth:`configure_environment`.
        :meth:`run_local_solves` round-trips every delivered batch through
        it, so downstream consumers — the fault manager's finiteness
        quarantine first among them — only ever see decoded dense updates.
        """
        self._comms = comms

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

    def _require_bound(self) -> None:
        if self.evaluator is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound; call bind() first "
                "(FederatedTrainer does this automatically)"
            )

    # Round work --------------------------------------------------------- #
    def run_local_solves(self, tasks: Sequence[LocalTask]) -> List["ClientUpdate"]:
        """The round's delivered updates: engine solve, then the comms stage.

        The one entry point of every engine.  :meth:`_solve` is what
        differs between them; the codec round-trip, error feedback and
        wire-byte accounting of the delivered batch happen here, once.
        A continuous engine accounts its downlink at admission (discarded
        check-ins downloaded the model too), so finalize counts only its
        delivered uplinks.
        """
        self._require_bound()
        updates = self._solve(tasks)
        if self._comms is not None:
            self._comms.finalize_round(
                updates, telemetry=self.telemetry,
                count_dispatch=not self.continuous, round_idx=self._round,
            )
        self._after_delivery(tasks, updates)
        return updates

    @abc.abstractmethod
    def _solve(self, tasks: Sequence[LocalTask]) -> List["ClientUpdate"]:
        """Run this dispatch; the delivered updates, each naming its task.

        Synchronous engines deliver every task, in task order.  A
        continuous engine may deliver fewer (check-ins in flight) or more
        (earlier rounds' check-ins arriving now); ``update.task`` is the
        task each was submitted as.
        """

    def _after_delivery(
        self, tasks: Sequence[LocalTask], updates: List["ClientUpdate"]
    ) -> None:
        """Hook: engine bookkeeping once the batch is decoded (no-op here)."""

    def _solve_in_process(self, tasks: Sequence[LocalTask]) -> List["ClientUpdate"]:
        """Each task solved here, one after another, against the bound pool."""
        return [
            solve_with_timings(self.clients[task.client_id], task)
            for task in tasks
        ]

    def train_loss(self, w: np.ndarray) -> float:
        """Global objective ``f(w)`` over the bound federation."""
        self._require_bound()
        return self.evaluator.train_loss(w)

    def test_accuracy(self, w: np.ndarray) -> float:
        """Sample-weighted global test accuracy over the bound federation."""
        self._require_bound()
        return self.evaluator.test_accuracy(w)


class SerialExecutor(RoundExecutor):
    """In-process sequential execution — the historical trainer behavior.

    Local solves run one after another against the trainer's shared model;
    evaluation delegates to the bound :class:`FederationEvaluator` (which
    still benefits from the stacked fast path when the model supports it).
    """

    def _solve(self, tasks):
        return self._solve_in_process(tasks)
