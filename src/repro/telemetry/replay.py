"""Bit-identical run replay from ledger manifests.

A schema-2 run artifact (see :mod:`repro.telemetry.ledger`) carries enough
information to re-execute the run from scratch: the trainer's options
(``trainer_config``, laid out by :data:`TRAINER_SECTIONS`), a dataset
reconstruction recipe, and model/solver construction specs.  Because every
source of randomness in the trainer is a pure function of ``(seed, round,
client, ...)``, the replayed run must reproduce the recorded history
*bit-for-bit* — down to device selections, straggler draws, fault
injections, and float-exact losses.  :func:`replay_run` performs that
re-execution and diffs the replayed canonical round records against the
recorded ones, producing a :class:`ReplayReport` that either certifies the
match (digest equality) or pinpoints the first divergent round and field.

The module deliberately imports :mod:`repro.core` and friends only inside
functions: ``repro.core.server`` imports the telemetry package at module
load, and replay lives downstream of both.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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
    "compare_histories",
    "ReplayError",
    "ReplayReport",
    "describe_trainer",
    "TRAINER_SECTIONS",
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


def _both_nan(a: Any, b: Any) -> bool:
    return isinstance(a, float) and isinstance(b, float) and a != a and b != b


def compare_histories(
    recorded: Sequence[Dict[str, Any]],
    replayed: Sequence[Dict[str, Any]],
    bound: float = 0.0,
) -> Tuple[List[FieldMismatch], Optional[FieldMismatch]]:
    """Compare two canonical record lists field by field over their shared rounds.

    A field whose :attr:`FieldMismatch.deviation` exceeds ``bound`` is a
    mismatch — only floats have a finite deviation, so every other field
    compares exactly, and a ``bound`` of 0 demands bit-identity.  Equal
    non-finite values are equal: ``inf`` to ``inf``, and NaN to NaN (the
    ledger's JSON keeps no NaN payload or sign), so a diverged run replays;
    a number against NaN stays a mismatch under any bound.  Returns
    the mismatches in round order, capped at :data:`MAX_MISMATCHES`, and
    the float field that deviated most while staying inside the bound
    (``None`` when every compared float was equal).  Round counts are the
    caller's to compare: a replay may be a prefix, a diff may not.
    """
    mismatches: List[FieldMismatch] = []
    drift: Optional[FieldMismatch] = None
    for idx, (rec, rep) in enumerate(zip(recorded, replayed)):
        round_idx = rec.get("round_idx", idx)
        for name in RECORD_FIELDS:
            a, b = rec.get(name), rep.get(name)
            if a == b or _both_nan(a, b):
                continue
            found = FieldMismatch(round_idx, name, a, b)
            # ``not <=``: a NaN deviation is a mismatch, not drift.
            if not found.deviation <= bound:
                mismatches.append(found)
            elif drift is None or found.deviation > drift.deviation:
                drift = found
        if len(mismatches) >= MAX_MISMATCHES:
            del mismatches[MAX_MISMATCHES:]
            break
    return mismatches, drift


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

#: The manifest's ``trainer_config`` sections in order, each with the
#: trainer constructor keywords it holds.  A section of several keywords is
#: a dict of their :func:`repro.spec.describe` output; a section named
#: after its one keyword states that option whole — ``evaluation`` and
#: ``comms`` as their config's fields, ``engine`` as
#: :func:`repro.runtime.engine_section`, ``seed`` and ``label`` verbatim.
TRAINER_SECTIONS = {
    "optimization": ("mu", "epochs", "drop_stragglers", "mu_controller"),
    "cohorting": ("clients_per_round", "sampling", "systems", "faults", "fault_policy"),
    "evaluation": ("evaluation",),
    "diagnostics": (
        "track_dissimilarity", "track_gamma", "dissimilarity_max_clients", "telemetry",
    ),
    "engine": ("engine",),
    "comms": ("comms",),
    "seed": ("seed",),
    "label": ("label",),
}

#: The key of a removed option that every manifest written while it existed
#: holds, always null: the reader drops it.
_RETIRED_KEY = ("diagnostics", "cost_tracker")


def describe_trainer(trainer) -> Dict[str, Any]:
    """The manifest sections of a live trainer — what replay reads back.

    Built from the trainer's *current* attributes, so every way of passing
    an option (a spec string, a prebuilt executor or config) serializes
    identically; called before round 0, while ``trainer.mu`` (and any
    adaptive-µ controller) still hold their initial values — the
    reconstructed trainer starts from the same state.  ``trainer_config``
    holds the options, laid out by :data:`TRAINER_SECTIONS`; ``recipe``
    the :func:`repro.spec.describe` output of the trainer class, dataset,
    model and solver (a ``None`` dataset recipe means the federation was
    not built by a registered builder from scalars and replay needs it
    supplied, which ``repro.trace replay`` reports explicitly).  Between
    them they state every option once; nothing else restates them.
    """
    from ..runtime import engine_section

    dataset = trainer.dataset
    faults = trainer.faults if trainer.faults.enabled else None
    options = {
        "mu": trainer.mu,
        "epochs": trainer.epochs,
        "drop_stragglers": trainer.drop_stragglers,
        "mu_controller": trainer.mu_controller,
        "clients_per_round": trainer.sampling.clients_per_round,
        "sampling": trainer.sampling,
        "systems": trainer.systems,
        "faults": faults,
        "fault_policy": trainer.fault_policy if faults is not None else None,
        # The *resolved* kernel mode, so replay never re-resolves "auto".
        "evaluation": asdict(replace(trainer.eval_config, mode=trainer.eval_mode)),
        "track_dissimilarity": trainer.track_dissimilarity,
        "track_gamma": trainer.track_gamma,
        "dissimilarity_max_clients": trainer.dissimilarity_max_clients,
        "telemetry": None,
        # From the live executor, so a prebuilt one states its spec.
        "engine": engine_section(trainer.executor.spec()),
        "comms": trainer.comms_config.to_dict(),
        "seed": trainer.seed,
        "label": trainer.label,
    }
    trainer_config = {
        section: options[section] if keys == (section,)
        else {key: describe(options[key]) for key in keys}
        for section, keys in TRAINER_SECTIONS.items()
    }
    recipe = {
        "trainer": type(trainer).__name__,
        **{k: v for k, v in describe(trainer).items() if k not in TAGS},
        "dataset": describe(dataset),
        "dataset_name": dataset.name,
        "num_devices": dataset.num_devices,
        "model": describe(trainer.model),
        "solver": describe(trainer.solver),
    }
    return {
        "label": trainer.label,
        "seed": trainer.seed,
        "executor": trainer.executor_mode,
        "eval_mode": trainer.eval_mode,
        "trainer_config": trainer_config,
        "recipe": recipe,
    }


def _trainer_options(config: Dict[str, Any], **live: Any) -> Dict[str, Any]:
    """The constructor keywords a ``trainer_config`` section states.

    The inverse of :func:`describe_trainer`'s layout: every described
    value goes through :func:`repro.spec.build` with ``live`` (a sampling
    scheme needs the rebuilt federation as ``dataset=``).  A section or
    key an older manifest lacks is left to the constructor's default; one
    :data:`TRAINER_SECTIONS` does not name raises :class:`ReplayError`
    naming it, as does a non-null value of a retired key.
    """
    from ..comms import CommsConfig
    from ..core.config import EvalConfig
    from ..runtime import engine_section, engine_spec

    whole = {
        "evaluation": (asdict(EvalConfig()), lambda value: EvalConfig(**value)),
        "engine": (engine_section("serial"), engine_spec),
        "comms": (CommsConfig().to_dict(), CommsConfig.from_dict),
    }
    options: Dict[str, Any] = {}
    for section, value in config.items():
        keys = TRAINER_SECTIONS.get(section)
        if keys is None:
            raise ReplayError(
                f"unknown trainer_config section {section!r}; sections: "
                f"{tuple(TRAINER_SECTIONS)}"
            )
        if section in ("seed", "label"):
            options[section] = value
            continue
        if not isinstance(value, dict):
            raise ReplayError(f"malformed trainer_config section {section}: {value!r}")
        known, read = whole.get(section, (keys, None))
        for key, spec in value.items():
            if (section, key) == _RETIRED_KEY:
                if spec is not None:
                    raise ReplayError(
                        f"{section}.{key} is no longer an option; only a null "
                        "value rebuilds"
                    )
            elif key not in known:
                raise ReplayError(
                    f"unknown trainer_config key {section}.{key}; {section} "
                    f"keys: {tuple(known)}"
                )
            elif read is None:
                options[key] = build(spec, f"{section}.{key}", **live)
        if read is not None:
            try:
                options[section] = read(value)
            except (TypeError, ValueError) as exc:
                raise ReplayError(f"{section} section rejected: {exc}") from exc
    return options


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
    # A figure cell states its label and seed once, beside the config; a
    # ledger states them in both places, equal.
    options = _trainer_options(
        {"label": manifest.get("label", ""), "seed": manifest.get("seed", 0), **config_spec},
        dataset=dataset,
    )
    if telemetry is not None:
        options["telemetry"] = telemetry
    return build(
        # Keys a ledger predates take the trainer's constructor defaults.
        {k: v for k, v in recipe.items() if k not in RECIPE_KEYS},
        "recipe",
        dataset=dataset,
        model=_component(recipe, "model"),
        solver=_component(recipe, "solver"),
        **options,
    )


def replay_run(
    source: Union[str, RunArtifact],
    dataset=None,
    num_rounds: Optional[int] = None,
) -> ReplayReport:
    """Re-execute a recorded run and diff it against its own ledger.

    Parameters
    ----------
    source:
        A run artifact or the path of its JSONL ledger.
    dataset:
        Pre-built federation, required when the manifest's dataset recipe
        is null and otherwise overriding it (at your own risk — a
        different federation will simply fail to match).
    num_rounds:
        Rounds to re-execute; defaults to the recorded round count.  Fewer
        is a prefix replay: the first ``num_rounds`` records and their
        digest are compared.

    The recording may have been driven by several ``run`` calls, each of
    which filled in its last record's evaluation; the ledger marks each
    fill-in that ran with a ``phase:final_evaluate`` span.  Replay drives
    one ``run`` per such segment, so every fill-in lands on the round it
    did.  A prefix replay drives the rounds after the last fill-in it
    reaches one by one, so its last round gets no end-of-run evaluation
    the recording, which went on, never made there.

    A ledger recorded under another numerics epoch
    (:data:`~repro.telemetry.ledger.NUMERICS_EPOCH`) is not owed
    bit-identity: its float fields are compared to
    :data:`EPOCH_DRIFT_BOUND` relative, everything else exactly, and the
    digests not at all.

    Returns a :class:`ReplayReport`; raises :class:`ReplayError` only for
    artifacts that cannot be re-executed at all.
    """
    artifact = source if isinstance(source, RunArtifact) else load_run(source)
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
    # Each segment ends where a ``run`` call filled in its last record; a
    # full replay's last segment is a ``run`` of its own.
    ends = {
        span["round"] + 1
        for span in artifact.spans
        if span.get("name") == "phase:final_evaluate" and span["round"] < rounds
    }
    if rounds >= len(recorded):
        ends.add(rounds)

    trainer = rebuild_trainer(artifact, dataset=dataset)
    try:
        records: List[Any] = []
        for end in sorted(ends):
            records += trainer.run(end - len(records)).records
        records += [trainer.run_round() for _ in range(rounds - len(records))]
    finally:
        trainer.close()
    replayed = [canonical_record(r) for r in records]
    same_epoch = artifact.numerics_epoch == NUMERICS_EPOCH

    mismatches, drift = compare_histories(
        recorded, replayed, 0.0 if same_epoch else EPOCH_DRIFT_BOUND
    )
    compared = min(len(recorded), len(replayed))
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
