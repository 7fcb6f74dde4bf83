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
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..comms import CommsConfig, CommsManager
from ..datasets.federated import FederatedDataset
from ..faults.manager import FaultManager, RoundFaultReport
from ..faults.models import FaultSchedule, resolve_faults
from ..faults.policy import FaultPolicy
from ..models.base import FederatedModel
from ..optim.base import LocalSolver
from ..runtime.evaluation import no_test_samples_error
from ..runtime.executor import LocalTask, RoundExecutor
from ..runtime.sampled import SampledEvaluator
from ..systems.costs import CostTracker
from ..systems.stragglers import NoHeterogeneity, SystemsModel
from ..telemetry import (
    DIGEST_ALGORITHM,
    HistoryDigest,
    MetricsRegistry,
    environment_info,
    peak_rss_bytes,
    resolve_telemetry,
)
from .adaptive_mu import AdaptiveMuController
from .callbacks import Callback
from .client import Client, ClientPool, ClientUpdate
from .config import EngineConfig, EvalConfig, TrainerConfig
from .dissimilarity import DissimilarityReport, measure_dissimilarity
from .history import RoundRecord, TrainingHistory
from .sampling import SamplingScheme, UniformSamplingWeightedAverage


def global_train_loss(clients: Sequence[Client], w: np.ndarray) -> float:
    """The global objective ``f(w) = sum_k p_k F_k(w)`` of Equation 1."""
    masses = np.array([c.data.num_train for c in clients], dtype=np.float64)
    masses /= masses.sum()
    losses = np.array([c.train_loss(w) for c in clients])
    return float(masses @ losses)


def global_test_accuracy(
    clients: Sequence[Client], w: np.ndarray, label: str = ""
) -> float:
    """Sample-weighted test accuracy across all devices with test data.

    Devices holding no test samples are skipped outright; if *no* device
    holds any, the error names the federation via ``label``.
    """
    correct = 0
    total = 0
    for client in clients:
        if client.data.num_test == 0:
            continue
        c, n = client.test_metrics(w)
        correct += c
        total += n
    if total == 0:
        raise no_test_samples_error(label)
    return correct / total


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
        eval_config = EvalConfig.resolve(evaluation)
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
        self.eval_config = eval_config
        self.eval_every = int(eval_config.every)
        self.eval_test = bool(eval_config.test)
        self.eval_strategy = eval_config.strategy
        # Stored even under the full strategy so the run-ledger manifest
        # always carries the complete evaluation configuration.
        self.eval_sample_size = int(eval_config.sample_size)
        self.eval_strata = int(eval_config.strata)
        self.eval_full_every = int(eval_config.full_every)
        self.eval_train_every = int(eval_config.train_every)
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
            eval_mode=eval_config.mode,
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
        self._sampled_evaluator: Optional[SampledEvaluator] = None
        if self.eval_strategy == "sampled":
            self._sampled_evaluator = SampledEvaluator(
                self.clients,
                dataset.train_sizes,
                dataset.test_sizes,
                sample_size=self.eval_sample_size,
                num_strata=self.eval_strata,
                seed=self.seed,
                full_every=self.eval_full_every,
                full_oracle=self.executor,
                label=dataset.name,
                telemetry=self.telemetry,
            )
        self.w = model.get_params()
        self._round = 0
        self._closed = False
        self._manifest_emitted = False
        self._last_dissimilarity: Optional[DissimilarityReport] = None
        # Run-ledger state (telemetry-enabled runs only).  Round records
        # are *deferred*: run() may still mutate the last record via
        # _ensure_final_evaluation, so records queue in _ledger_pending and
        # are canonicalized + digested + emitted only at end-of-run (or at
        # close, whichever comes first).
        self._ledger_digest = HistoryDigest()
        self._ledger_pending: List[RoundRecord] = []
        self._ledger_wall = 0.0
        self._ledger_last: Optional[dict] = None
        self._footer_emitted = False

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

    def _ledger_engine(self) -> EngineConfig:
        """The live executor's full parameterization for the run ledger.

        Recovered from the executor itself (not the construction-time
        config) so a prebuilt instance serializes identically to its spec
        string; executors outside the spec grammar degrade to a bare mode
        name.
        """
        try:
            return EngineConfig.from_spec(self.executor.spec())
        except (TypeError, ValueError):
            return EngineConfig(mode=self.executor_mode)

    def _emit_manifest_once(self) -> None:
        """Emit the run-header manifest before the first round's events."""
        if self._manifest_emitted or not self.telemetry.enabled:
            return
        self._manifest_emitted = True
        config = {
            "mu": self.mu,
            "epochs": self.epochs,
            "drop_stragglers": self.drop_stragglers,
            "clients_per_round": getattr(
                self.sampling, "clients_per_round", None
            ),
            "num_devices": self.dataset.num_devices,
            "dataset": self.dataset.name,
            "model": type(self.model).__name__,
            "n_params": self.model.n_params,
            "systems": type(self.systems).__name__,
            "eval": self.eval_strategy,
            "eval_every": self.eval_every,
            "eval_train_every": self.eval_train_every,
            "track_gamma": self.track_gamma,
            "track_dissimilarity": self.track_dissimilarity,
            "adaptive_mu": self.mu_controller is not None,
        }
        if self._sampled_evaluator is not None:
            config["eval_sample_size"] = self._sampled_evaluator.sample_size
            config["eval_strata"] = self._sampled_evaluator.sampler.num_strata
            config["eval_full_every"] = self._sampled_evaluator.full_every
        if self.faults.enabled:
            config["faults"] = self.faults.to_dict()
            config["fault_policy"] = self.fault_policy.to_dict()
        if self.comms_config.enabled:
            config["comms"] = self.comms_config.to_dict()
        config.update(self.solver.telemetry_tags())
        self.telemetry.manifest(
            label=self.label,
            seed=self.seed,
            executor=self.executor_mode,
            eval_mode=self.eval_mode,
            config=config,
            trainer_config=self._ledger_trainer_config(),
            recipe=self._ledger_recipe(),
            environment=environment_info(),
        )

    def _ledger_trainer_config(self) -> dict:
        """This trainer's live configuration as a serialized TrainerConfig.

        Built from the trainer's *current* attributes rather than any
        config object it may have been constructed from, so every
        construction path serializes identically.  Emitted before round 0,
        while ``self.mu`` (and any adaptive-µ controller) still hold their
        initial values — the reconstructed trainer starts from the same
        state.
        """
        config = TrainerConfig.from_kwargs(
            mu=self.mu,
            epochs=self.epochs,
            drop_stragglers=self.drop_stragglers,
            mu_controller=self.mu_controller,
            clients_per_round=self.sampling.clients_per_round,
            sampling=self.sampling,
            systems=self.systems,
            faults=self.faults if self.faults.enabled else None,
            fault_policy=self.fault_policy if self.faults.enabled else None,
            evaluation=EvalConfig(
                every=self.eval_every,
                test=self.eval_test,
                mode=self.eval_mode,
                strategy=self.eval_strategy,
                sample_size=self.eval_sample_size,
                strata=self.eval_strata,
                full_every=self.eval_full_every,
                train_every=self.eval_train_every,
            ),
            track_dissimilarity=self.track_dissimilarity,
            track_gamma=self.track_gamma,
            dissimilarity_max_clients=self.dissimilarity_max_clients,
            telemetry=None,
            cost_tracker=None,
            seed=self.seed,
            engine=self._ledger_engine(),
            comms=self.comms_config,
            label=self.label,
        )
        return config.to_dict()

    def _ledger_recipe(self) -> dict:
        """Dataset/model/solver reconstruction descriptors for the ledger.

        The dataset recipe is ``None`` for federations not built from a
        seeded builder — replay then requires the caller to supply the
        dataset, which ``repro.trace replay`` reports explicitly.
        """
        return {
            "trainer": type(self).__name__,
            "dataset": getattr(self.dataset, "recipe", None),
            "dataset_name": self.dataset.name,
            "num_devices": self.dataset.num_devices,
            "model": self.model.spec(),
            "solver": self.solver.spec(),
        }

    def _batch_entropy(
        self, round_idx: int, client_id: int, occurrence: int
    ) -> Tuple[int, int, int, int]:
        """Entropy tuple deriving this solve's mini-batch randomness."""
        return (self.seed, round_idx, client_id, occurrence)

    def _batch_rng(self, round_idx: int, client_id: int, occurrence: int) -> np.random.Generator:
        """Mini-batch shuffling randomness, fixed across compared runs."""
        return np.random.default_rng(
            np.random.SeedSequence(
                list(self._batch_entropy(round_idx, client_id, occurrence))
            )
        )

    def _local_updates(
        self, round_idx: int, selected: List[int]
    ) -> Tuple[List[ClientUpdate], List[int], List[int]]:
        """Run local solves; returns (accepted updates, stragglers, dropped).

        Builds one :class:`~repro.runtime.executor.LocalTask` per accepted
        assignment and hands the batch to the round executor; results come
        back in task order, so aggregation is independent of how (or where)
        the solves actually ran.

        When a fault schedule is enabled, the pending solves route through
        the :class:`~repro.faults.manager.FaultManager` instead — it draws
        faults, dispatches (and possibly re-dispatches) through the same
        executor, and applies the robustness policy.  With faults disabled
        the task list below is exactly the historical one, so fault-free
        histories are bit-identical to earlier versions.
        """
        assignments = self.systems.assign(round_idx, selected, self.epochs)
        cost = None
        if self.cost_tracker is not None:
            cost = self.cost_tracker.start_round(round_idx, len(selected))

        pending: List[Tuple[int, float, int]] = []
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
            pending.append((cid, assignment.epochs, occurrence))

        # Device-side codec rides on the task when error feedback is off
        # (the lean IPC path); under EF the manager encodes server-side.
        task_codec = (
            self._comms_manager.task_codec
            if self._comms_manager is not None
            else None
        )

        def build_task(cid, epochs, occurrence, extra_entropy, fault):
            return LocalTask(
                client_id=cid,
                w_global=self.w,
                mu=self.mu,
                epochs=epochs,
                rng_entropy=self._batch_entropy(round_idx, cid, occurrence)
                + tuple(extra_entropy),
                measure_gamma=self.track_gamma,
                collect_timings=self.telemetry.enabled,
                fault=fault,
                codec=task_codec,
            )

        if self._fault_manager is None:
            tasks = [
                build_task(cid, epochs, occurrence, (), None)
                for cid, epochs, occurrence in pending
            ]
            updates = self.executor.run_local_solves(tasks)
            self._last_fault_report = None
        else:
            updates, report = self._fault_manager.execute_round(
                round_idx,
                pending,
                build_task,
                self.executor.run_local_solves,
                num_selected=len(selected),
                always_dispatch=getattr(self.executor, "continuous", False),
            )
            dropped.extend(report.dropped)
            self._last_fault_report = report
        if cost is not None:
            for update in updates:
                self.cost_tracker.record_upload(
                    cost, update.epochs, update.gradient_evaluations
                )
        return updates, stragglers, dropped

    def _eval_train_loss(self, record: RoundRecord, round_idx: int) -> None:
        """Fill the record's training loss via the configured strategy."""
        if self._sampled_evaluator is not None:
            estimate = self._sampled_evaluator.train_loss(self.w, round_idx)
            record.train_loss = estimate.value
            record.train_loss_ci = estimate.ci_halfwidth
            record.eval_sample_size = estimate.sample_size
            record.eval_full = estimate.full
        else:
            record.train_loss = self.executor.train_loss(self.w)

    def _eval_test_accuracy(self, record: RoundRecord, round_idx: int) -> None:
        """Fill the record's test accuracy via the configured strategy."""
        if self._sampled_evaluator is not None:
            estimate = self._sampled_evaluator.test_accuracy(self.w, round_idx)
            record.test_accuracy = estimate.value
            record.accuracy_ci = estimate.ci_halfwidth
            record.eval_sample_size = estimate.sample_size
            record.eval_full = estimate.full
        else:
            record.test_accuracy = self.executor.test_accuracy(self.w)

    def _evaluate(self, round_idx: int) -> RoundRecord:
        """Post-aggregation metrics for the current global model.

        The training loss is evaluated on ``eval_train_every`` rounds (and
        always on round 0, the final round via
        :meth:`_ensure_final_evaluation`, and every round while the
        adaptive-µ controller is active, since it consumes the loss);
        skipped rounds record ``train_loss=None`` explicitly.
        """
        self._last_dissimilarity = None
        record = RoundRecord(round_idx=round_idx, train_loss=None, mu=self.mu)
        need_train = (
            (round_idx % self.eval_train_every) == 0
            or round_idx == 0
            or self.mu_controller is not None
        )
        if need_train:
            self._eval_train_loss(record, round_idx)
        if (round_idx % self.eval_every) == 0 or round_idx == 0:
            if self.eval_test:
                self._eval_test_accuracy(record, round_idx)
            if self.track_dissimilarity:
                report = measure_dissimilarity(
                    self.clients,
                    self.w,
                    max_clients=self.dissimilarity_max_clients,
                )
                record.dissimilarity = report.gradient_variance
                self._last_dissimilarity = report
        return record

    def run_round(self) -> RoundRecord:
        """Execute one communication round and return its metrics."""
        self._emit_manifest_once()
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
        w_start = self.w
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

        with telemetry.span("phase:evaluate", round_idx=round_idx):
            record = self._evaluate(round_idx)
        record.selected = list(selected)
        record.stragglers = stragglers
        record.dropped = dropped
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
            self._ledger_wall += round_wall
            telemetry.record_span(
                "round",
                round_wall,
                round_idx=round_idx,
                clients=len(selected),
                stragglers=len(stragglers),
                dropped=len(dropped),
            )
            self._emit_round_diagnostics(round_idx, w_start, updates, record)
            self._ledger_pending.append(record)

        self._round += 1
        return record

    def _emit_round_diagnostics(
        self,
        round_idx: int,
        w_start: np.ndarray,
        updates: List[ClientUpdate],
        record: RoundRecord,
    ) -> None:
        """Emit the round's FedProx diagnostics and per-client solve spans.

        Purely observational — reads the round's updates and record,
        computes drift/proximal statistics, and flushes the metrics
        registry.  Only called when telemetry is enabled, so the disabled
        path never pays for the norm computations.
        """
        for update in updates:
            if update.timings is not None:
                attrs = {
                    k: v for k, v in update.timings.items() if k != "solve"
                }
                self.telemetry.record_span(
                    "solve:client",
                    update.timings.get("solve", 0.0),
                    round_idx=round_idx,
                    client_id=update.client_id,
                    epochs=update.epochs,
                    **attrs,
                )

        registry = self.metrics
        registry.counter("rounds_total").inc()
        registry.counter("solves_total").inc(len(updates))
        registry.counter("stragglers_total").inc(len(record.stragglers))
        registry.counter("dropped_total").inc(len(record.dropped))
        if self._fault_manager is not None:
            # Cumulative fault counters ride the registry as gauges: the
            # manager already emitted the per-event counters
            # (fault:injected / fault:retry / fault:quarantine /
            # round:degraded) at decision time.
            for name, value in self._fault_manager.stats.as_dict().items():
                registry.gauge(f"faults.{name}").set(value)

        if updates:
            # Client drift ||w_k - w_t|| and the proximal-term magnitude
            # (mu/2)||w_k - w_t||^2 actually paid by each local subproblem.
            drifts = [
                float(np.linalg.norm(u.w - w_start)) for u in updates
            ]
            registry.histogram("fedprox.client_drift").observe_many(drifts)
            registry.histogram("fedprox.prox_term").observe_many(
                0.5 * record.mu * d * d for d in drifts
            )
            # Straggler budget utilization: fraction of the global epoch
            # target E actually completed by the accepted updates.
            registry.gauge("fedprox.budget_utilization").set(
                sum(u.epochs for u in updates) / (len(updates) * self.epochs)
            )
            gammas = [
                u.gamma
                for u in updates
                if u.gamma is not None and np.isfinite(u.gamma)
            ]
            if gammas:
                registry.histogram("fedprox.gamma").observe_many(gammas)

        if record.train_loss is not None:
            registry.gauge("train_loss").set(record.train_loss)
        if record.test_accuracy is not None:
            registry.gauge("test_accuracy").set(record.test_accuracy)
        registry.gauge("mu").set(record.mu)
        if record.eval_sample_size is not None:
            registry.gauge("eval.sample_size").set(record.eval_sample_size)
        if record.train_loss_ci is not None:
            registry.gauge("eval.ci_halfwidth").set(record.train_loss_ci)
        peak_rss = peak_rss_bytes()
        if peak_rss is not None:
            registry.gauge("process.peak_rss_bytes").set(peak_rss)
        report = self._last_dissimilarity
        if report is not None:
            registry.gauge("fedprox.gradient_variance").set(
                report.gradient_variance
            )
            if np.isfinite(report.b_value):
                registry.gauge("fedprox.b_value").set(report.b_value)
        registry.emit_round(round_idx)

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
        self._flush_ledger_events()
        self.telemetry.flush()
        return history

    def _ensure_final_evaluation(self, history: TrainingHistory) -> None:
        """Fill in test accuracy (and dissimilarity) for the last round.

        When this fill-in evaluation actually runs (an early stop or an
        ``eval_every`` skip left the last record unevaluated), it is traced
        as a ``phase:final_evaluate`` span and the final test accuracy is
        re-emitted as a gauge, so the telemetry stream always ends with
        the final model's evaluation.
        """
        if not history.records:
            return
        last = history.records[-1]
        needs_train = last.train_loss is None
        needs_test = self.eval_test and last.test_accuracy is None
        needs_dissimilarity = (
            self.track_dissimilarity and last.dissimilarity is None
        )
        if not needs_train and not needs_test and not needs_dissimilarity:
            return
        with self.telemetry.span(
            "phase:final_evaluate", round_idx=last.round_idx
        ):
            if needs_train:
                self._eval_train_loss(last, last.round_idx)
            if needs_test:
                self._eval_test_accuracy(last, last.round_idx)
            if needs_dissimilarity:
                report = measure_dissimilarity(
                    self.clients, self.w,
                    max_clients=self.dissimilarity_max_clients,
                )
                last.dissimilarity = report.gradient_variance
        if needs_test and self.telemetry.enabled:
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
        if self._fault_manager is None:
            from ..faults.manager import FaultStats

            return FaultStats().as_dict()
        return self._fault_manager.stats.as_dict()

    @property
    def comms_stats(self) -> dict:
        """Cumulative wire-byte accounting (identity values when disabled).

        See :meth:`~repro.comms.manager.CommsManager.stats` for the keys.
        """
        if self._comms_manager is None:
            return {
                "bytes_up": 0.0,
                "bytes_down": 0.0,
                "dense_bytes_up": 0.0,
                "compression_ratio": 1.0,
                "residual_clients": 0.0,
            }
        return self._comms_manager.stats()

    def _flush_ledger_events(self) -> None:
        """Canonicalize, digest, and emit the queued round records."""
        if not self.telemetry.enabled:
            return
        for record in self._ledger_pending:
            canonical = self._ledger_digest.update(record)
            self.telemetry.round_record(record.round_idx, canonical)
            self._ledger_last = canonical
        self._ledger_pending = []

    def _emit_run_footer_once(self) -> None:
        """Seal the run artifact: emit the digest-bearing run footer.

        Emitted at most once, at :meth:`close`, and only for runs whose
        manifest actually went out — an artifact's footer is its
        end-of-file marker, so readers treat its absence as truncation.
        """
        if (
            self._footer_emitted
            or not self._manifest_emitted
            or not self.telemetry.enabled
        ):
            return
        self._footer_emitted = True
        self._flush_ledger_events()
        last = self._ledger_last or {}
        self.telemetry.run_footer(
            rounds=self._ledger_digest.rounds,
            wall_seconds=self._ledger_wall,
            digest=self._ledger_digest.hexdigest(),
            algorithm=DIGEST_ALGORITHM,
            final_train_loss=last.get("train_loss"),
            final_test_accuracy=last.get("test_accuracy"),
        )

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
            self._emit_run_footer_once()
            self.telemetry.close()

    def __enter__(self) -> "FederatedTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
