"""The federated server loop (Algorithms 1 and 2).

:class:`FederatedTrainer` implements the generalized FedProx framework; the
paper's concrete methods are configurations of it:

* **FedAvg** (Algorithm 1): ``mu=0``, SGD local solver, and
  ``drop_stragglers=True`` — devices that cannot finish ``E`` epochs within
  the round are discarded.
* **FedProx** (Algorithm 2): any ``mu >= 0``, any local solver, and
  stragglers' *partial* solutions are aggregated.

Randomness protocol: the paper fixes "the randomly selected devices, the
stragglers, and mini-batch orders across all runs".  All three draws here
are pure functions of the construction seed plus round/device indices, so
any two trainers built with the same ``seed`` (and sampling scheme /
systems model seeds) experience identical environments.

Execution: the trainer describes each round as a batch of
:class:`~repro.runtime.executor.LocalTask` descriptions and delegates the
actual solves (and federation evaluation) to a pluggable
:class:`~repro.runtime.executor.RoundExecutor` — serial in-process by
default, or multiprocess via
:class:`~repro.runtime.parallel.ParallelExecutor` with bit-identical
results.

This module is that loop and nothing else: a method with a different local
subproblem overrides :meth:`FederatedTrainer._corrections` (FedDane does),
and what a run writes about itself lives beside its readers
(:func:`repro.telemetry.replay.describe_trainer`,
:class:`repro.telemetry.ledger.RunLedger`, :mod:`repro.core.diagnostics`).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..comms import CommsConfig, CommsManager
from ..datasets.federated import FederatedDataset
from ..faults.manager import FaultManager, FaultStats, RoundFaultReport
from ..faults.models import FaultSchedule, resolve_faults
from ..faults.policy import FaultPolicy
from ..models.base import FederatedModel
from ..optim.base import LocalSolver
from ..runtime.executor import LocalTask, RoundExecutor
from ..runtime.sampled import SampledEvaluator
from ..spec import register
from ..systems.costs import CostTracker
from ..systems.stragglers import NoHeterogeneity, SystemsModel
from ..telemetry import MetricsRegistry, RunLedger, resolve_telemetry
from ..telemetry.replay import describe_trainer
from .adaptive_mu import AdaptiveMuController
from .callbacks import Callback
from .client import ClientPool, ClientUpdate
from .config import EngineConfig, EvalConfig, TrainerConfig
from .diagnostics import emit_round_diagnostics
from .dissimilarity import DissimilarityReport, measure_dissimilarity
from .history import RoundRecord, TrainingHistory
from .sampling import SamplingScheme, UniformSamplingWeightedAverage


class FederatedTrainer:
    """Generalized FedProx server (Algorithm 2 of the paper).

    Parameters
    ----------
    dataset:
        The federation's data.
    model:
        Shared model instance used as every client's loss/gradient oracle;
        its parameters at construction time become ``w_0``.
    solver:
        Local solver run on each selected device.
    mu:
        Proximal coefficient of the local subproblem (0 recovers the
        FedAvg subproblem).
    drop_stragglers:
        ``True`` reproduces FedAvg's straggler handling (discard devices
        that could not complete ``E`` epochs); ``False`` aggregates their
        partial solutions (FedProx).
    clients_per_round:
        ``K`` — the number of devices selected each round (10 in all paper
        experiments).
    epochs:
        ``E`` — the target local epochs per round (20 in most experiments).
    sampling:
        Device sampling/aggregation scheme; defaults to the experiments'
        scheme (uniform sampling + weighted average).
    systems:
        Systems-heterogeneity model assigning per-device work budgets;
        defaults to no heterogeneity.
    faults:
        Fault schedule injecting per-(round, client) failures — crashes,
        dropouts, update corruption, stale deliveries (see
        :mod:`repro.faults`).  Defaults to
        :class:`~repro.faults.models.NoFaults`, under which the trainer's
        behavior and histories are bit-identical to a fault-free trainer.
        Fault draws are pure functions of the schedule's seed, so seeded
        runs reproduce exactly and are identical on every executor.
    fault_policy:
        Server-side robustness policy resolving injected faults (crash
        retry/accept/drop, NaN quarantine, minimum aggregation quorum);
        defaults to :class:`~repro.faults.policy.FaultPolicy`'s
        FedProx-style accept-partial semantics.  Only consulted when
        ``faults`` is enabled.
    mu_controller:
        Optional adaptive-µ controller; when given, it overrides ``mu``
        from the second round onward.
    seed:
        Seed for mini-batch order derivation.
    evaluation:
        An :class:`~repro.core.config.EvalConfig` grouping every
        evaluation knob: cadence (``every`` / ``train_every``), strategy
        (``"full"`` exhaustive or ``"sampled"`` stratified subsample with
        confidence intervals — see
        :class:`~repro.runtime.sampled.SampledEvaluator`), the sampled
        strategy's ``sample_size`` / ``strata`` / ``full_every``, and the
        evaluation kernel ``mode``.
    track_dissimilarity:
        Record the gradient-variance dissimilarity each evaluation round.
    track_gamma:
        Measure every accepted local solve's γ-inexactness (Definition 2)
        and record the round's mean/max — the empirical counterpart of
        Corollary 9's variable γ's.  Costs two extra full-batch gradients
        per device per round.
    dissimilarity_max_clients:
        Subsample size for dissimilarity measurement on large federations.
    cost_tracker:
        Optional communication/computation cost accounting.
    callbacks:
        Per-round observers; any callback returning ``True`` from
        ``on_round_end`` stops :meth:`run` early (e.g.
        :class:`~repro.core.callbacks.EarlyStopping`).
    engine:
        The round execution engine: an
        :class:`~repro.core.config.EngineConfig`, an executor spec string
        (``"serial"``, ``"parallel[:N|:auto]"``, ``"cohort"``, or
        ``"async:window=W,discount=poly,..."`` — see
        :data:`repro.runtime.EXECUTOR_MODES` for the grammar), or a
        prebuilt :class:`~repro.runtime.executor.RoundExecutor` instance.
        Defaults to serial in-process execution.  The synchronous engines
        yield bit-identical histories for the same configuration; the
        async engine (:mod:`repro.runtime.async_engine`) aggregates under
        a bounded-staleness window with staleness-discounted weights and
        matches serial bit-for-bit only in its degenerate ``window=0``
        synchronized mode.  Call :meth:`close` (or use the trainer as a
        context manager) to release executor resources.
    telemetry:
        Instrumentation for this run (see :mod:`repro.telemetry`): a
        :class:`~repro.telemetry.Telemetry` emits a run manifest, spans
        over the round lifecycle (selection → local solve → aggregation →
        evaluation, plus executor-internal detail), and per-round FedProx
        diagnostic metrics to its sinks.  Defaults to the shared
        :class:`~repro.telemetry.NullTelemetry`, under which training
        behavior and histories are bit-identical to an uninstrumented
        trainer.  The trainer owns the telemetry object: :meth:`close`
        flushes and closes its sinks exactly once.
    label:
        Display name stored on the produced history.
    """

    def __init__(
        self,
        dataset: FederatedDataset,
        model: FederatedModel,
        solver: LocalSolver,
        *,
        mu: float = 0.0,
        drop_stragglers: bool = False,
        clients_per_round: int = 10,
        epochs: float = 20,
        sampling: Optional[SamplingScheme] = None,
        systems: Optional[SystemsModel] = None,
        faults: Optional[FaultSchedule] = None,
        fault_policy: Optional[FaultPolicy] = None,
        mu_controller: Optional[AdaptiveMuController] = None,
        seed: int = 0,
        engine: Optional[Union[EngineConfig, RoundExecutor, str]] = None,
        comms: Optional[Union[CommsConfig, str]] = None,
        evaluation: Optional[EvalConfig] = None,
        track_dissimilarity: bool = False,
        track_gamma: bool = False,
        dissimilarity_max_clients: Optional[int] = None,
        cost_tracker: Optional[CostTracker] = None,
        callbacks: Optional[List[Callback]] = None,
        telemetry=None,
        label: str = "",
    ) -> None:
        if mu < 0:
            raise ValueError("mu must be non-negative")
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.eval_config = EvalConfig.resolve(evaluation)
        self.dataset = dataset
        self.model = model
        self.solver = solver
        self.mu = float(mu)
        self.drop_stragglers = bool(drop_stragglers)
        self.epochs = float(epochs)
        self.sampling = sampling or UniformSamplingWeightedAverage(
            dataset, clients_per_round, seed=seed
        )
        self.systems = systems or NoHeterogeneity()
        self.faults = resolve_faults(faults)
        if fault_policy is not None and not isinstance(fault_policy, FaultPolicy):
            raise TypeError(
                f"fault_policy must be a FaultPolicy, got "
                f"{type(fault_policy).__name__}"
            )
        self.fault_policy = fault_policy or FaultPolicy()
        self.mu_controller = mu_controller
        if mu_controller is not None:
            self.mu = mu_controller.mu
        self.seed = int(seed)
        self.track_dissimilarity = bool(track_dissimilarity)
        self.track_gamma = bool(track_gamma)
        self.dissimilarity_max_clients = dissimilarity_max_clients
        self.cost_tracker = cost_tracker
        self.callbacks: List[Callback] = list(callbacks or [])
        if cost_tracker is not None and cost_tracker.model_bytes == 0:
            cost_tracker.model_bytes = model.n_params * 8
        self.label = label or self.describe()

        self.telemetry = resolve_telemetry(telemetry)
        self.metrics = MetricsRegistry(self.telemetry)
        # The manager only exists when faults are enabled: the NoFaults
        # default keeps _local_updates on its original code path, so
        # fault-free histories stay bit-identical to earlier versions.
        self._fault_manager: Optional[FaultManager] = (
            FaultManager(self.faults, self.fault_policy, telemetry=self.telemetry)
            if self.faults.enabled
            else None
        )
        self._last_fault_report: Optional[RoundFaultReport] = None

        # Client access resolves through the dataset's store: eager
        # datasets get the historical prebuilt list (bit-identical
        # histories), lazy stores get transient per-access clients bounded
        # by the store's cache.
        self.clients: ClientPool = ClientPool(dataset, model, solver)
        self.engine_config = EngineConfig.resolve(engine)
        self.executor = self.engine_config.build()
        self.executor.bind(
            dataset,
            model,
            solver,
            clients=self.clients,
            eval_mode=self.eval_config.mode,
            label=dataset.name,
            telemetry=self.telemetry,
        )
        # Hand the engine the simulated environment: the async engine
        # resolves its arrival clock here (systems device profiles can
        # drive check-in times; the trainer seed keeps seeded latency
        # reproducible and replayable).  Synchronous engines ignore it.
        self.executor.configure_environment(
            systems=self.systems, seed=self.seed, epochs=self.epochs
        )
        # Update compression: the dense default builds no manager at all,
        # so uncompressed runs keep their historical code path (and
        # histories) untouched.  The executor shares the manager — every
        # engine decodes payloads before the fault policy or aggregation
        # reads an update.
        self.comms_config = CommsConfig.resolve(comms)
        self._comms_manager: Optional[CommsManager] = (
            CommsManager(self.comms_config)
            if self.comms_config.enabled
            else None
        )
        self.executor.configure_comms(self._comms_manager)
        self.eval_mode = self.executor.eval_mode
        # Sampled evaluation runs in-process through the client pool (the
        # per-round sample is a pure function of (seed, round), so every
        # executor sees identical samples); full-evaluation checkpoints
        # delegate to the executor's exhaustive oracle, preserving its
        # evaluation parity guarantees on those rounds.
        self.sampled_evaluator: Optional[SampledEvaluator] = None
        if self.eval_config.strategy == "sampled":
            self.sampled_evaluator = SampledEvaluator(
                self.clients,
                dataset.train_sizes,
                dataset.test_sizes,
                sample_size=self.eval_config.sample_size,
                num_strata=self.eval_config.strata,
                seed=self.seed,
                full_every=self.eval_config.full_every,
                full_oracle=self.executor,
                label=dataset.name,
                telemetry=self.telemetry,
            )
        self.w = model.get_params()
        self._round = 0
        self._closed = False
        self._ledger = RunLedger(self.telemetry)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(
        cls,
        dataset: FederatedDataset,
        model: FederatedModel,
        solver: LocalSolver,
        config: TrainerConfig,
        callbacks: Optional[List[Callback]] = None,
    ) -> "FederatedTrainer":
        """Build a trainer from a :class:`~repro.core.config.TrainerConfig`.

        Equivalent to passing ``config.trainer_kwargs()`` as keyword
        arguments — both paths construct identical trainers — but the
        grouped config travels better: it is frozen, serializes via
        ``config.to_dict()``, and sweeps derive variants with
        ``config.replace(mu=...)``.
        """
        if not isinstance(config, TrainerConfig):
            raise TypeError(
                f"config must be a TrainerConfig, got {type(config).__name__}"
            )
        return cls(
            dataset, model, solver, callbacks=callbacks,
            **config.trainer_kwargs(),
        )

    def describe(self) -> str:
        """Canonical display name for this configuration."""
        if self.drop_stragglers and self.mu == 0 and self.mu_controller is None:
            return "FedAvg"
        if self.mu_controller is not None:
            return "FedProx (adaptive mu)"
        return f"FedProx (mu={self.mu:g})"

    @property
    def executor_mode(self) -> str:
        """Short engine mode name (``serial``/``parallel``/``cohort``/``async``)."""
        return self.executor.spec().partition(":")[0]

    def _corrections(
        self, round_idx: int
    ) -> Optional[Callable[[int], np.ndarray]]:
        """Hook: this round's linear term of the local subproblem, per device.

        ``None`` (FedAvg, FedProx) leaves ``F_k(w) + (mu/2)||w - w_t||²``
        as it is; a method with a corrected subproblem returns
        ``client_id -> vector`` and each task carries its device's vector
        (:attr:`LocalTask.correction <repro.runtime.executor.LocalTask>`),
        honoured by every engine.
        """
        return None

    def _local_updates(
        self, round_idx: int, selected: List[int]
    ) -> Tuple[List[ClientUpdate], List[int], List[int]]:
        """Run local solves; returns (accepted updates, stragglers, dropped).

        Builds one :class:`~repro.runtime.executor.LocalTask` per accepted
        assignment and hands the batch to the round executor — through the
        :class:`~repro.faults.manager.FaultManager` when a fault schedule
        is enabled, which draws faults, dispatches (and possibly
        re-dispatches) through the same executor and applies the
        robustness policy.  Every update names the task it answers, so
        aggregation is independent of how (or where, or when) it ran.
        """
        assignments = self.systems.assign(round_idx, selected, self.epochs)
        cost = None
        if self.cost_tracker is not None:
            cost = self.cost_tracker.start_round(round_idx, len(selected))

        # Device-side codec rides on the task when error feedback is off
        # (the lean IPC path); under EF the manager encodes server-side.
        task_codec = (
            self._comms_manager.task_codec
            if self._comms_manager is not None
            else None
        )
        correction = self._corrections(round_idx)
        tasks: List[LocalTask] = []
        stragglers: List[int] = []
        dropped: List[int] = []
        occurrence_count: dict = {}
        for assignment in assignments:
            cid = assignment.client_id
            occurrence = occurrence_count.get(cid, 0)
            occurrence_count[cid] = occurrence + 1
            if assignment.is_straggler:
                stragglers.append(cid)
                if self.drop_stragglers:
                    dropped.append(cid)
                    continue
            tasks.append(
                LocalTask(
                    client_id=cid,
                    w_global=self.w,
                    mu=self.mu,
                    epochs=assignment.epochs,
                    # Derives this solve's mini-batch randomness.
                    rng_entropy=(self.seed, round_idx, cid, occurrence),
                    measure_gamma=self.track_gamma,
                    correction=None if correction is None else correction(cid),
                    collect_timings=self.telemetry.enabled,
                    codec=task_codec,
                )
            )

        self._last_fault_report = None
        if self._fault_manager is None:
            updates = self.executor.run_local_solves(tasks)
        else:
            updates, self._last_fault_report = self._fault_manager.execute_round(
                round_idx, tasks, self.executor.run_local_solves,
                num_selected=len(selected),
            )
            dropped.extend(self._last_fault_report.dropped)
        if cost is not None:
            for update in updates:
                self.cost_tracker.record_upload(
                    cost, update.epochs, update.gradient_evaluations
                )
        return updates, stragglers, dropped

    def _due(self, record: RoundRecord, final: bool = False) -> List[str]:
        """The evaluations this record is owed and does not hold yet.

        The training loss is evaluated on ``train_every`` rounds, the test
        accuracy and dissimilarity on ``every`` rounds — and always on
        round 0, on the run's ``final`` record, and (the loss) every round
        while the adaptive-µ controller is active, since it consumes it.
        Skipped rounds keep ``None`` explicitly.
        """
        cadence, r = self.eval_config, record.round_idx
        on_cadence = final or r % cadence.every == 0
        wanted = {
            "train_loss": final
            or r % cadence.train_every == 0
            or self.mu_controller is not None,
            "test_accuracy": on_cadence and cadence.test,
            "dissimilarity": on_cadence and self.track_dissimilarity,
        }
        return [k for k, on in wanted.items() if on and getattr(record, k) is None]

    def _evaluate(
        self, record: RoundRecord, due: List[str]
    ) -> Optional[DissimilarityReport]:
        """Fill ``due`` fields of the record from the current global model.

        Returns the dissimilarity measurement when one was due (the record
        keeps only its gradient variance).
        """
        cis = {"train_loss": "train_loss_ci", "test_accuracy": "accuracy_ci"}
        report = None
        for name in due:
            if name == "dissimilarity":
                report = measure_dissimilarity(
                    self.clients, self.w, max_clients=self.dissimilarity_max_clients
                )
                record.dissimilarity = report.gradient_variance
            elif self.sampled_evaluator is None:
                setattr(record, name, getattr(self.executor, name)(self.w))
            else:
                measure = getattr(self.sampled_evaluator, name)
                estimate = measure(self.w, record.round_idx)
                setattr(record, name, estimate.value)
                setattr(record, cis[name], estimate.ci_halfwidth)
                record.eval_sample_size = estimate.sample_size
                record.eval_full = estimate.full
        return report

    def run_round(self) -> RoundRecord:
        """Execute one communication round and return its metrics."""
        self._ledger.open(describe_trainer, self)
        telemetry = self.telemetry
        round_idx = self._round
        # The round span is timed explicitly (not as an enclosing context
        # manager) so telemetry's own bookkeeping — diagnostics emission
        # below — never inflates the reported round duration: the phase
        # spans tile the round span.
        t_round = time.perf_counter() if telemetry.enabled else 0.0
        # Continuous engines advance their simulated clock per round even
        # when the round contributes no new tasks (a no-op hook otherwise).
        self.executor.begin_round(round_idx)
        with telemetry.span("phase:select", round_idx=round_idx):
            selected = self.sampling.select(round_idx)
        with telemetry.span(
            "phase:local_solve", round_idx=round_idx, clients=len(selected)
        ):
            updates, stragglers, dropped = self._local_updates(
                round_idx, selected
            )
        with telemetry.span("phase:aggregate", round_idx=round_idx):
            accepted = [(u.client_id, u.w) for u in updates]
            discounts = [getattr(u, "discount", 1.0) for u in updates]
            if any(d != 1.0 for d in discounts):
                # Only the async engine stamps discounts != 1; keeping the
                # two-argument call on every synchronous round preserves
                # historical aggregation arithmetic bit-for-bit (and custom
                # schemes without the discounts kwarg keep working).
                self.w = self.sampling.aggregate(
                    accepted, self.w, discounts=discounts
                )
            else:
                self.w = self.sampling.aggregate(accepted, self.w)
            self.model.set_params(self.w)

        record = RoundRecord(
            round_idx=round_idx,
            train_loss=None,
            mu=self.mu,
            selected=list(selected),
            stragglers=stragglers,
            dropped=dropped,
        )
        with telemetry.span("phase:evaluate", round_idx=round_idx):
            dissimilarity = self._evaluate(record, self._due(record))
        if self._last_fault_report is not None:
            record.degraded = self._last_fault_report.degraded
        if self.track_gamma:
            gammas = [u.gamma for u in updates if u.gamma is not None]
            finite = [g for g in gammas if np.isfinite(g)]
            if finite:
                record.gamma_mean = float(np.mean(finite))
                record.gamma_max = float(np.max(finite))

        if self.mu_controller is not None:
            self.mu = self.mu_controller.update(record.train_loss)

        if telemetry.enabled:
            round_wall = time.perf_counter() - t_round
            telemetry.record_span(
                "round",
                round_wall,
                round_idx=round_idx,
                clients=len(selected),
                stragglers=len(stragglers),
                dropped=len(dropped),
            )
            emit_round_diagnostics(
                telemetry, self.metrics, record, updates, self.epochs,
                fault_stats=self.fault_stats if self._fault_manager else None,
                dissimilarity=dissimilarity,
            )
            self._ledger.add_round(record, round_wall)

        self._round += 1
        return record

    def run(self, num_rounds: int) -> TrainingHistory:
        """Run up to ``num_rounds`` communication rounds.

        Stops early if any callback requests it; calling :meth:`run` again
        continues from the current round counter.  The final round is
        always fully evaluated, even when ``eval_every`` would have skipped
        it, so ``history.final_test_accuracy()`` reflects the final model.
        """
        history = TrainingHistory(label=self.label)
        for _ in range(num_rounds):
            record = self.run_round()
            history.append(record)
            if any(cb.on_round_end(record) for cb in self.callbacks):
                break
        self._ensure_final_evaluation(history)
        for cb in self.callbacks:
            cb.on_train_end(history)
        self._ledger.flush()
        self.telemetry.flush()
        return history

    def _ensure_final_evaluation(self, history: TrainingHistory) -> None:
        """Fill in whatever evaluation the last round's record still lacks.

        When this fill-in evaluation actually runs (an early stop or an
        ``eval_every`` skip left the last record unevaluated), it is traced
        as a ``phase:final_evaluate`` span and the final test accuracy is
        re-emitted as a gauge, so the telemetry stream always ends with
        the final model's evaluation.
        """
        if not history.records:
            return
        last = history.records[-1]
        due = self._due(last, final=True)
        if not due:
            return
        with self.telemetry.span(
            "phase:final_evaluate", round_idx=last.round_idx
        ):
            self._evaluate(last, due)
        if "test_accuracy" in due and self.telemetry.enabled:
            self.telemetry.metric(
                "test_accuracy",
                last.test_accuracy,
                round_idx=last.round_idx,
                kind="gauge",
            )

    # ------------------------------------------------------------------ #
    @property
    def fault_stats(self) -> dict:
        """Cumulative fault counters for this run (all zero when disabled).

        See :class:`~repro.faults.manager.FaultStats` for the keys.
        """
        manager = self._fault_manager
        return (manager.stats if manager is not None else FaultStats()).as_dict()

    @property
    def comms_stats(self) -> dict:
        """Cumulative wire-byte accounting (identity values when disabled).

        See :meth:`~repro.comms.manager.CommsManager.stats` for the keys.
        """
        manager = self._comms_manager or CommsManager(self.comms_config)
        return manager.stats()

    def close(self) -> None:
        """Release executor resources and flush telemetry; idempotent.

        Safe to call any number of times (and after ``with`` exit): the
        executor's own ``close`` is idempotent, the run footer is emitted
        at most once, and the telemetry sinks are flushed and closed
        exactly once.
        """
        self.executor.close()
        if not self._closed:
            self._closed = True
            self._ledger.seal()
            self.telemetry.close()

    def __enter__(self) -> "FederatedTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


# On replay every argument above arrives live — federation, model and solver
# rebuilt from their own specs, the options from the manifest's
# ``trainer_config`` — so a trainer class describes only what a subclass adds.
register(
    FederatedTrainer,
    tag="trainer",
    live=("dataset", "model", "solver", "callbacks", *TrainerConfig().trainer_kwargs()),
)
