"""Bit-identical run replay from ledger manifests.

A schema-2 run artifact (see :mod:`repro.telemetry.ledger`) carries enough
information to re-execute the run from scratch: the serialized
:class:`~repro.core.config.TrainerConfig`, a dataset reconstruction recipe,
and model/solver construction specs.  Because every source of randomness in
the trainer is a pure function of ``(seed, round, client, ...)``, the
replayed run must reproduce the recorded history *bit-for-bit* — down to
device selections, straggler draws, fault injections, and float-exact
losses.  :func:`replay_run` performs that re-execution and diffs the
replayed canonical round records against the recorded ones, producing a
:class:`ReplayReport` that either certifies the match (digest equality) or
pinpoints the first divergent round and field.

The module deliberately imports :mod:`repro.core` and friends only inside
functions: ``repro.core.server`` imports the telemetry package at module
load, and replay lives downstream of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from .ledger import (
    RECORD_FIELDS,
    RunArtifact,
    canonical_record,
    history_digest,
    load_run,
    verify_artifact,
)

__all__ = [
    "FieldMismatch",
    "ReplayError",
    "ReplayReport",
    "build_dataset",
    "build_model",
    "build_solver",
    "describe_trainer",
    "rebuild_trainer",
    "replay_run",
]

#: Maximum mismatches retained in a report (the first divergence is what
#: matters; the cap keeps hopeless diffs bounded).
MAX_MISMATCHES = 50


class ReplayError(RuntimeError):
    """A run artifact that cannot be replayed, and why.

    Raised for structural problems discovered *before* re-execution:
    artifacts without round records or a ``trainer_config`` (an
    unsupported schema version among them), datasets without a
    reconstruction recipe, unknown model/solver/builder names.  Divergence
    between the recorded and replayed histories is NOT an error — it is
    the finding, reported via :class:`ReplayReport`.
    """


@dataclass(frozen=True)
class FieldMismatch:
    """One recorded-vs-replayed disagreement in a canonical round record."""

    round_idx: int
    field: str
    recorded: Any
    replayed: Any

    def describe(self) -> str:
        return (
            f"round {self.round_idx} field {self.field!r}: "
            f"recorded={self.recorded!r} replayed={self.replayed!r}"
        )


@dataclass
class ReplayReport:
    """Outcome of replaying a run artifact against its recorded history.

    Attributes
    ----------
    matches:
        True iff every recorded round record is reproduced bit-identically
        and the digests agree.
    rounds_compared:
        Number of rounds diffed (min of recorded and replayed counts).
    rounds_recorded, rounds_replayed:
        History lengths on each side (unequal lengths are a mismatch).
    mismatches:
        Field-level disagreements in round order, capped at
        ``MAX_MISMATCHES``; empty when ``matches``.
    recorded_digest, replayed_digest:
        Canonical history digests of each side.  ``recorded_digest`` is
        recomputed from the artifact's round records; when the artifact
        has a footer its sealed digest must agree (ledger verification,
        reported via ``issues``).
    issues:
        Structural issues from :func:`~repro.telemetry.ledger.verify_artifact`
        (truncation, tampering) — pre-existing artifact problems, distinct
        from replay divergence.
    label, executor:
        Identification of the replayed run, for report headers.
    """

    matches: bool
    rounds_compared: int
    rounds_recorded: int
    rounds_replayed: int
    mismatches: List[FieldMismatch] = field(default_factory=list)
    recorded_digest: str = ""
    replayed_digest: str = ""
    issues: List[str] = field(default_factory=list)
    label: str = ""
    executor: str = ""

    @property
    def first_divergence(self) -> Optional[FieldMismatch]:
        """The earliest divergent (round, field), or None on a clean match."""
        return self.mismatches[0] if self.mismatches else None

    def describe(self) -> str:
        """Multi-line human-readable report."""
        head = f"replay {self.label or '<unlabeled>'} [{self.executor}]"
        lines = [head]
        if self.issues:
            lines.append(f"  artifact issues ({len(self.issues)}):")
            lines.extend(f"    - {issue}" for issue in self.issues)
        if self.matches:
            lines.append(
                f"  MATCH: {self.rounds_compared} rounds bit-identical, "
                f"digest {self.recorded_digest[:16]}"
            )
            return "\n".join(lines)
        lines.append(
            f"  MISMATCH: recorded {self.rounds_recorded} rounds "
            f"(digest {self.recorded_digest[:16]}), replayed "
            f"{self.rounds_replayed} (digest {self.replayed_digest[:16]})"
        )
        first = self.first_divergence
        if first is not None:
            lines.append(f"  first divergence: {first.describe()}")
        for m in self.mismatches[1:6]:
            lines.append(f"    then {m.describe()}")
        extra = len(self.mismatches) - 6
        if extra > 0:
            lines.append(f"    ... and {extra} more field mismatches")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Component registries
# --------------------------------------------------------------------- #
def build_dataset(recipe: Optional[Dict[str, Any]]):
    """Reconstruct a federated dataset from a manifest recipe dict.

    ``recipe`` is the ``{"builder": name, **kwargs}`` descriptor attached
    by the seeded dataset builders (see
    :class:`~repro.datasets.federated.FederatedDataset`).  ``None`` means
    the original federation was not a pure function of scalars — the
    caller must supply the dataset to :func:`replay_run` directly.
    """
    if recipe is None:
        raise ReplayError(
            "dataset recipe is null: the original federation was not built "
            "from a seeded builder; pass the dataset to replay_run(...) "
            "via dataset="
        )
    if not isinstance(recipe, dict) or "builder" not in recipe:
        raise ReplayError(f"malformed dataset recipe: {recipe!r}")
    from .. import datasets

    builders = {
        "make_synthetic": datasets.make_synthetic,
        "make_synthetic_iid": datasets.make_synthetic_iid,
        "make_synthetic_ondemand": datasets.make_synthetic_ondemand,
        "make_shakespeare_like": datasets.make_shakespeare_like,
        "make_sent140_like": datasets.make_sent140_like,
    }
    name = recipe["builder"]
    builder = builders.get(name)
    if builder is None:
        raise ReplayError(
            f"unknown dataset builder {name!r}; known: {sorted(builders)}"
        )
    kwargs = {k: v for k, v in recipe.items() if k != "builder"}
    try:
        return builder(**kwargs)
    except TypeError as exc:
        raise ReplayError(f"dataset recipe {name!r} rejected: {exc}") from exc


def build_model(spec: Optional[Dict[str, Any]]):
    """Reconstruct a model from its ``spec()`` dict (``{"type": ..., **kwargs}``)."""
    from .. import models

    classes = {
        "MultinomialLogisticRegression": models.MultinomialLogisticRegression,
        "MLPClassifier": models.MLPClassifier,
        "CharLSTM": models.CharLSTM,
        "SentimentLSTM": models.SentimentLSTM,
    }
    return _build_from_spec(spec, classes, "model")


def build_solver(spec: Optional[Dict[str, Any]]):
    """Reconstruct a local solver from its ``spec()`` dict."""
    from .. import optim

    classes = {
        "SGDSolver": optim.SGDSolver,
        "MomentumSGDSolver": optim.MomentumSGDSolver,
        "GDSolver": optim.GDSolver,
        "AdamSolver": optim.AdamSolver,
    }
    return _build_from_spec(spec, classes, "solver")


def _build_from_spec(
    spec: Optional[Dict[str, Any]], classes: Dict[str, type], what: str
):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ReplayError(f"malformed {what} spec: {spec!r}")
    kind = spec["type"]
    cls = classes.get(kind)
    if cls is None:
        raise ReplayError(
            f"unknown {what} type {kind!r}; known: {sorted(classes)}"
        )
    kwargs = {k: v for k, v in spec.items() if k != "type"}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ReplayError(f"{what} spec {kind!r} rejected: {exc}") from exc


def _build_sampling(spec: Optional[Dict[str, Any]], dataset):
    """Rebuild a sampling scheme against a reconstructed federation."""
    if spec is None:
        return None
    from ..core.sampling import (
        UniformSamplingWeightedAverage,
        WeightedSamplingSimpleAverage,
    )

    classes = {
        "UniformSamplingWeightedAverage": UniformSamplingWeightedAverage,
        "WeightedSamplingSimpleAverage": WeightedSamplingSimpleAverage,
    }
    kind = spec.get("type") if isinstance(spec, dict) else None
    cls = classes.get(kind)
    if cls is None:
        raise ReplayError(
            f"unknown sampling scheme {kind!r}; known: {sorted(classes)}"
        )
    return cls(
        dataset,
        clients_per_round=spec["clients_per_round"],
        seed=spec.get("seed", 0),
    )


# --------------------------------------------------------------------- #
# Trainer description (the manifest writer) and reconstruction (its reader)
# --------------------------------------------------------------------- #
#: Trainer class name -> the constructor keywords it takes beyond
#: :class:`~repro.core.config.TrainerConfig`.  The recipe records them for
#: that class only and :func:`rebuild_trainer` passes them back.
TRAINER_EXTRAS = {
    "FederatedTrainer": (),
    "FedDaneTrainer": ("gradient_clients",),
}


def describe_trainer(trainer) -> Dict[str, Any]:
    """The manifest sections of a live trainer — what replay reads back.

    Built from the trainer's *current* attributes rather than any config
    object it may have been constructed from, so every construction path
    serializes identically; called before round 0, while ``trainer.mu``
    (and any adaptive-µ controller) still hold their initial values — the
    reconstructed trainer starts from the same state.  ``config`` is the
    flat summary for people and reports, ``trainer_config`` the serialized
    :class:`~repro.core.config.TrainerConfig`, ``recipe`` the
    dataset/model/solver descriptors (a ``None`` dataset recipe means the
    federation was not built by a seeded builder and replay needs it
    supplied, which ``repro.trace replay`` reports explicitly).
    """
    from ..core.config import EngineConfig, TrainerConfig

    dataset, model, evaluation = trainer.dataset, trainer.model, trainer.eval_config
    faults = trainer.faults if trainer.faults.enabled else None
    # The engine is recovered from the live executor (not the
    # construction-time config) so a prebuilt instance serializes
    # identically to its spec string; executors outside the spec grammar
    # degrade to a bare mode name.
    try:
        engine = EngineConfig.from_spec(trainer.executor.spec())
    except (TypeError, ValueError):
        engine = EngineConfig(mode=trainer.executor_mode)

    config = {
        "mu": trainer.mu,
        "epochs": trainer.epochs,
        "drop_stragglers": trainer.drop_stragglers,
        "clients_per_round": getattr(trainer.sampling, "clients_per_round", None),
        "num_devices": dataset.num_devices,
        "dataset": dataset.name,
        "model": type(model).__name__,
        "n_params": model.n_params,
        "systems": type(trainer.systems).__name__,
        "eval": evaluation.strategy,
        "eval_every": evaluation.every,
        "eval_train_every": evaluation.train_every,
        "track_gamma": trainer.track_gamma,
        "track_dissimilarity": trainer.track_dissimilarity,
        "adaptive_mu": trainer.mu_controller is not None,
    }
    sampled = trainer.sampled_evaluator
    if sampled is not None:
        config["eval_sample_size"] = sampled.sample_size
        config["eval_strata"] = sampled.sampler.num_strata
        config["eval_full_every"] = sampled.full_every
    if faults is not None:
        config["faults"] = faults.to_dict()
        config["fault_policy"] = trainer.fault_policy.to_dict()
    if trainer.comms_config.enabled:
        config["comms"] = trainer.comms_config.to_dict()
    config.update(trainer.solver.telemetry_tags())

    trainer_config = TrainerConfig.from_kwargs(
        mu=trainer.mu,
        epochs=trainer.epochs,
        drop_stragglers=trainer.drop_stragglers,
        mu_controller=trainer.mu_controller,
        clients_per_round=trainer.sampling.clients_per_round,
        sampling=trainer.sampling,
        systems=trainer.systems,
        faults=faults,
        fault_policy=trainer.fault_policy if faults is not None else None,
        # The *resolved* kernel mode, so replay never re-resolves "auto".
        evaluation=replace(evaluation, mode=trainer.eval_mode),
        track_dissimilarity=trainer.track_dissimilarity,
        track_gamma=trainer.track_gamma,
        dissimilarity_max_clients=trainer.dissimilarity_max_clients,
        telemetry=None,
        cost_tracker=None,
        seed=trainer.seed,
        engine=engine,
        comms=trainer.comms_config,
        label=trainer.label,
    )
    recipe = {
        "trainer": type(trainer).__name__,
        "dataset": getattr(dataset, "recipe", None),
        "dataset_name": dataset.name,
        "num_devices": dataset.num_devices,
        "model": model.spec(),
        "solver": trainer.solver.spec(),
    }
    for name in TRAINER_EXTRAS.get(type(trainer).__name__, ()):
        recipe[name] = getattr(trainer, name)
    return {
        "label": trainer.label,
        "seed": trainer.seed,
        "executor": trainer.executor_mode,
        "eval_mode": trainer.eval_mode,
        "config": config,
        "trainer_config": trainer_config.to_dict(),
        "recipe": recipe,
    }


def rebuild_trainer(
    artifact: RunArtifact,
    dataset=None,
    telemetry=None,
):
    """Reconstruct the trainer a run artifact's manifest describes.

    Returns a fresh, un-run trainer equivalent to the original at round 0.
    ``dataset`` overrides recipe-based reconstruction (required when the
    manifest's dataset recipe is null); ``telemetry`` defaults to disabled
    so a replay does not itself emit a ledger.

    Raises :class:`ReplayError` when the manifest carries no
    ``trainer_config`` or describes components this build cannot
    reconstruct.
    """
    manifest = artifact.manifest
    if manifest is None:
        raise ReplayError("artifact has no manifest event")
    config_spec = manifest.get("trainer_config")
    recipe = manifest.get("recipe") or {}
    if not isinstance(config_spec, dict):
        raise ReplayError("manifest has no trainer_config section")

    trainer_name = recipe.get("trainer", "FederatedTrainer")
    from ..core.config import TrainerConfig
    from ..core.feddane import FedDaneTrainer
    from ..core.server import FederatedTrainer

    trainer_classes = {
        "FederatedTrainer": FederatedTrainer,
        "FedDaneTrainer": FedDaneTrainer,
    }
    trainer_cls = trainer_classes.get(trainer_name)
    if trainer_cls is None:
        raise ReplayError(
            f"unknown trainer class {trainer_name!r}; known: "
            f"{sorted(trainer_classes)}"
        )

    if dataset is None:
        dataset = build_dataset(recipe.get("dataset"))
    want_devices = recipe.get("num_devices")
    if want_devices is not None and dataset.num_devices != want_devices:
        raise ReplayError(
            f"reconstructed dataset has {dataset.num_devices} devices, "
            f"manifest recorded {want_devices}"
        )
    model = build_model(recipe.get("model"))
    solver = build_solver(recipe.get("solver"))

    # The sampling scheme binds to a live dataset, so its spec cannot go
    # through TrainerConfig.from_dict — rebuild it here and re-inject.
    config_spec = dict(config_spec)
    cohorting = dict(config_spec.get("cohorting", {}))
    sampling_spec = cohorting.pop("sampling", None)
    config_spec["cohorting"] = cohorting
    config = TrainerConfig.from_dict(config_spec)
    sampling = _build_sampling(sampling_spec, dataset)
    if sampling is not None:
        config = config.replace(sampling=sampling)
    if telemetry is not None:
        config = config.replace(telemetry=telemetry)
    extras = {
        name: recipe[name]
        for name in TRAINER_EXTRAS[trainer_name]
        if name in recipe  # ledgers older than the key keep the default
    }
    return trainer_cls(dataset, model, solver, **config.trainer_kwargs(), **extras)


def replay_run(
    source: Union[str, RunArtifact],
    run: int = 0,
    dataset=None,
    num_rounds: Optional[int] = None,
) -> ReplayReport:
    """Re-execute a recorded run and diff it against its own ledger.

    Parameters
    ----------
    source:
        A run artifact or a path to a JSONL artifact file.
    run:
        Which run to replay when the file chains several (``append=True``).
    dataset:
        Pre-built federation, required when the manifest's dataset recipe
        is null and otherwise overriding it (at your own risk — a
        different federation will simply fail to match).
    num_rounds:
        Rounds to re-execute; defaults to the recorded round count.

    Returns a :class:`ReplayReport`; raises :class:`ReplayError` only for
    artifacts that cannot be re-executed at all.
    """
    artifact = (
        source if isinstance(source, RunArtifact) else load_run(source, run=run)
    )
    issues = verify_artifact(artifact)
    recorded = artifact.history_records()
    if not recorded and num_rounds is None:
        raise ReplayError(
            "; ".join(
                ["artifact holds no round records; nothing to replay against"]
                + issues
            )
        )
    rounds = num_rounds if num_rounds is not None else len(recorded)

    trainer = rebuild_trainer(artifact, dataset=dataset)
    try:
        history = trainer.run(rounds)
    finally:
        trainer.close()
    replayed = [canonical_record(r) for r in history.records]

    mismatches: List[FieldMismatch] = []
    compared = min(len(recorded), len(replayed))
    for idx in range(compared):
        if len(mismatches) >= MAX_MISMATCHES:
            break
        rec, rep = recorded[idx], replayed[idx]
        round_idx = rec.get("round_idx", idx)
        for name in RECORD_FIELDS:
            if rec.get(name) != rep.get(name):
                mismatches.append(
                    FieldMismatch(round_idx, name, rec.get(name), rep.get(name))
                )
                if len(mismatches) >= MAX_MISMATCHES:
                    break
    if len(recorded) != len(replayed):
        tail = min(len(recorded), len(replayed))
        mismatches.append(
            FieldMismatch(tail, "rounds", len(recorded), len(replayed))
        )

    recorded_digest = artifact.computed_digest() or ""
    replayed_digest = history_digest(replayed)
    matches = not mismatches and recorded_digest == replayed_digest
    return ReplayReport(
        matches=matches,
        rounds_compared=compared,
        rounds_recorded=len(recorded),
        rounds_replayed=len(replayed),
        mismatches=mismatches,
        recorded_digest=recorded_digest,
        replayed_digest=replayed_digest,
        issues=issues,
        label=artifact.label,
        executor=artifact.executor,
    )
