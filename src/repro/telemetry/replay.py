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

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Union

from ..spec import TAGS, ReplayError, build, describe
from .ledger import (
    NUMERICS_EPOCH,
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
    "describe_trainer",
    "rebuild_trainer",
    "replay_run",
]

#: Maximum mismatches retained in a report (the first divergence is what
#: matters; the cap keeps hopeless diffs bounded).
MAX_MISMATCHES = 50

#: Relative deviation a float field may show when the ledger was recorded
#: under another numerics epoch than this tree's (DESIGN §15): the bound
#: the engines are already held to against each other.  Epoch 1 moved
#: evaluated losses by at most 1.7e-15 over the six bench workloads.
EPOCH_DRIFT_BOUND = 1e-12


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

    @property
    def deviation(self) -> float:
        """Relative distance of two float values (``inf`` for anything else)."""
        a, b = self.recorded, self.replayed
        if not (isinstance(a, float) and isinstance(b, float)):
            return float("inf")
        return abs(a - b) / max(abs(a), abs(b))


@dataclass
class ReplayReport:
    """Outcome of replaying a run artifact against its recorded history.

    Attributes
    ----------
    matches:
        True iff every compared round record is reproduced bit-identically
        and the digests agree — or, for a ledger of another numerics
        epoch, iff every field agrees exactly except floats, which agree
        within :data:`EPOCH_DRIFT_BOUND`.
    rounds_compared:
        Number of rounds diffed (min of recorded and replayed counts).
    rounds_recorded, rounds_replayed:
        History lengths on each side.  Replaying fewer rounds than were
        recorded is a prefix replay; replaying more is a mismatch.
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
    recorded_epoch:
        The ledger's :data:`~repro.telemetry.ledger.NUMERICS_EPOCH`.
    drift:
        Across epochs, the float field that deviated most while staying
        inside the bound (``None`` when every float was equal).
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
    recorded_epoch: int = NUMERICS_EPOCH
    drift: Optional[FieldMismatch] = None

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
        rounds = f"{self.rounds_compared} rounds"
        if self.rounds_compared < self.rounds_recorded:
            rounds = f"{self.rounds_compared} of {self.rounds_recorded} rounds"
        cross_epoch = self.recorded_epoch != NUMERICS_EPOCH
        epochs = (
            f"recorded under numerics epoch {self.recorded_epoch}, "
            f"this tree is epoch {NUMERICS_EPOCH}"
        )
        if self.matches and cross_epoch:
            deviation = "0"
            if self.drift is not None:
                deviation = (
                    f"{self.drift.deviation:.1e} (`{self.drift.field}`, "
                    f"round {self.drift.round_idx})"
                )
            lines.append(
                f"  {epochs}: {rounds}, exact fields equal, "
                f"max relative deviation {deviation}"
            )
            return "\n".join(lines)
        if self.matches:
            lines.append(
                f"  MATCH: {rounds} bit-identical, "
                f"digest {self.recorded_digest[:16]}"
            )
            return "\n".join(lines)
        if cross_epoch:
            lines.append(
                f"  {epochs}: floats compared to {EPOCH_DRIFT_BOUND:g} relative"
            )
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
# Trainer description (the manifest writer) and reconstruction (its reader)
# --------------------------------------------------------------------- #
#: The recipe keys that are not the trainer's own description; whatever
#: else a recipe holds is ``{"trainer": name, **what that class adds}``.
RECIPE_KEYS = ("dataset", "dataset_name", "num_devices", "model", "solver")


def describe_trainer(trainer) -> Dict[str, Any]:
    """The manifest sections of a live trainer — what replay reads back.

    Built from the trainer's *current* attributes rather than any config
    object it may have been constructed from, so every construction path
    serializes identically; called before round 0, while ``trainer.mu``
    (and any adaptive-µ controller) still hold their initial values — the
    reconstructed trainer starts from the same state.  ``config`` is the
    flat summary for people and reports, ``trainer_config`` the serialized
    :class:`~repro.core.config.TrainerConfig`, ``recipe`` the
    :func:`repro.spec.describe` output of the trainer class, dataset, model
    and solver (a ``None`` dataset recipe means the federation was not
    built by a registered builder from scalars and replay needs it
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
        config["faults"] = describe(faults)
        config["fault_policy"] = asdict(trainer.fault_policy)
    if trainer.comms_config.enabled:
        config["comms"] = trainer.comms_config.to_dict()
    solver_spec = describe(trainer.solver)
    config["solver"] = trainer.solver.describe()
    config.update(
        (name, solver_spec[name])
        for name in ("learning_rate", "batch_size", "momentum")
        if name in solver_spec
    )

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
        **{k: v for k, v in describe(trainer).items() if k not in TAGS},
        "dataset": describe(dataset),
        "dataset_name": dataset.name,
        "num_devices": dataset.num_devices,
        "model": describe(model),
        "solver": solver_spec,
    }
    return {
        "label": trainer.label,
        "seed": trainer.seed,
        "executor": trainer.executor_mode,
        "eval_mode": trainer.eval_mode,
        "config": config,
        "trainer_config": trainer_config.to_dict(),
        "recipe": recipe,
    }


def _component(recipe: Dict[str, Any], key: str):
    """Build the recipe's ``key`` section, which must be a description."""
    spec = recipe.get(key)
    if not isinstance(spec, dict):
        raise ReplayError(f"malformed {key} spec: {spec!r}")
    return build(spec, key)


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

    if dataset is None:
        if recipe.get("dataset") is None:
            from ..datasets import NOT_RECONSTRUCTIBLE

            raise ReplayError(
                "dataset recipe is null: the federation was not built from "
                "scalars by a registered builder ("
                + "; ".join(f"{k}: {v}" for k, v in NOT_RECONSTRUCTIBLE.items())
                + "; or a builder handed a caller-owned rng) — pass it to "
                "replay_run(..., dataset=)"
            )
        dataset = _component(recipe, "dataset")
    want_devices = recipe.get("num_devices")
    if want_devices is not None and dataset.num_devices != want_devices:
        raise ReplayError(
            f"reconstructed dataset has {dataset.num_devices} devices, "
            f"manifest recorded {want_devices}"
        )
    from ..core.config import TrainerConfig

    config = TrainerConfig.from_dict(config_spec, dataset=dataset)
    if telemetry is not None:
        config = config.replace(telemetry=telemetry)
    return build(
        # Keys a ledger predates take the trainer's constructor defaults.
        {k: v for k, v in recipe.items() if k not in RECIPE_KEYS},
        "recipe",
        dataset=dataset,
        model=_component(recipe, "model"),
        solver=_component(recipe, "solver"),
        **config.trainer_kwargs(),
    )


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
        Rounds to re-execute; defaults to the recorded round count.  Fewer
        is a prefix replay: the first ``num_rounds`` records and their
        digest are compared, and the rounds are driven one by one so the
        last of them gets no end-of-run evaluation the recording, which
        went on, never made there.

    A ledger recorded under another numerics epoch
    (:data:`~repro.telemetry.ledger.NUMERICS_EPOCH`) is not owed
    bit-identity: its float fields are compared to
    :data:`EPOCH_DRIFT_BOUND` relative, everything else exactly, and the
    digests not at all.

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
        if rounds < len(recorded):
            records = [trainer.run_round() for _ in range(rounds)]
        else:
            records = trainer.run(rounds).records
    finally:
        trainer.close()
    replayed = [canonical_record(r) for r in records]
    same_epoch = artifact.numerics_epoch == NUMERICS_EPOCH

    mismatches: List[FieldMismatch] = []
    drift: Optional[FieldMismatch] = None
    compared = min(len(recorded), len(replayed))
    for idx in range(compared):
        rec, rep = recorded[idx], replayed[idx]
        round_idx = rec.get("round_idx", idx)
        for name in RECORD_FIELDS:
            if rec.get(name) == rep.get(name):
                continue
            found = FieldMismatch(round_idx, name, rec.get(name), rep.get(name))
            # ``not <=``: a NaN deviation is a mismatch, not drift.
            if same_epoch or not found.deviation <= EPOCH_DRIFT_BOUND:
                mismatches.append(found)
            elif drift is None or found.deviation > drift.deviation:
                drift = found
        if len(mismatches) >= MAX_MISMATCHES:
            del mismatches[MAX_MISMATCHES:]
            break
    if len(replayed) > len(recorded):
        mismatches.append(
            FieldMismatch(compared, "rounds", len(recorded), len(replayed))
        )

    recorded_digest = history_digest(recorded[:compared])
    replayed_digest = history_digest(replayed)
    matches = not mismatches and (
        not same_epoch or recorded_digest == replayed_digest
    )
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
        recorded_epoch=artifact.numerics_epoch,
        drift=drift,
    )
