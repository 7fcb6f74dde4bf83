"""The run ledger: canonical history records, digests, and run artifacts.

A schema-2 telemetry artifact is a *ledger* of one training run — enough
to reconstruct, verify, and audit it from the JSONL file alone:

* The **manifest** (first line) carries the trainer's options
  (``trainer_config``, :func:`repro.telemetry.replay.describe_trainer`), the
  dataset/model/solver reconstruction descriptors (``recipe``), and the
  producing environment (``environment``: package version, git SHA,
  platform/CPU info).
* Every completed round appends a **round_record** event — the round's
  :class:`~repro.core.history.RoundRecord` in the canonical form defined
  by :func:`canonical_record` — once the next round is queued (or the run
  ends), so an unclosed ledger holds every round but the newest.
* The final line is the **run_footer**: wall-clock totals, final metrics,
  and a streaming SHA-256 digest over the canonical round history
  (:data:`DIGEST_ALGORITHM`), making artifacts tamper- and
  truncation-evident — a file that ends without its footer was cut short,
  and a file whose recomputed digest disagrees with its footer was edited.

Digest definition
-----------------
``sha256`` over the UTF-8 bytes of ``canonical_json(record) + "\\n"`` for
each round record in round order, where :func:`canonical_json` is JSON
with sorted keys and no whitespace.  Floats serialize via Python's
shortest-round-trip ``repr``, so the digest is *bit-exact*: two runs
digest equal iff every recorded field of every round is equal after JSON
round-tripping — which is exactly the equality
:func:`repro.telemetry.replay.replay_run` asserts.

This module deliberately imports nothing from :mod:`repro.core` (the
trainer imports telemetry); records are canonicalized by duck-typed
attribute access so the dependency arrow keeps pointing one way.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .events import SCHEMA_VERSION
from .sinks import read_jsonl

#: Tag stamped into every run footer next to the digest, so a future
#: canonicalization change cannot silently compare digests across
#: definitions.
DIGEST_ALGORITHM = "sha256/canonical-round-records/v1"

#: Which arithmetic this tree evaluates with.  Digest equality *across
#: commits* is a convention, spent only by bumping this integer together
#: with a CHANGES.md line saying what moved and by how much (DESIGN §15
#: lists every epoch); it is written into each manifest's environment
#: block, and a ledger without the key is epoch 0.  Replaying a ledger of
#: another epoch compares floats to a bound instead of bit-for-bit.
NUMERICS_EPOCH = 3

#: The canonical field order of one round record.  Field names match
#: :class:`repro.core.history.RoundRecord` attributes; the digest and the
#: replay comparison both iterate this tuple, so it is the single source
#: of truth for "what counts as the history".
RECORD_FIELDS = (
    "round_idx",
    "train_loss",
    "test_accuracy",
    "dissimilarity",
    "mu",
    "train_loss_ci",
    "accuracy_ci",
    "eval_sample_size",
    "eval_full",
    "gamma_mean",
    "gamma_max",
    "selected",
    "stragglers",
    "dropped",
    "degraded",
)

_INT_LIST_FIELDS = ("selected", "stragglers", "dropped")
_INT_FIELDS = ("round_idx", "eval_sample_size")
_BOOL_FIELDS = ("eval_full", "degraded")


def canonical_record(record: Any) -> Dict[str, Any]:
    """One round's history as a canonical, JSON-stable dict.

    Accepts a :class:`~repro.core.history.RoundRecord` (attribute access)
    or an already-dict record (e.g. loaded back from an artifact); the
    output is identical either way: every field of :data:`RECORD_FIELDS`,
    with ints/bools/floats coerced to their plain Python types and id
    lists to lists of ints.  Floats survive a JSON round-trip bit-exactly
    (shortest-repr serialization), so ``canonical_record(loaded) ==
    canonical_record(original)``.
    """
    get = record.get if isinstance(record, dict) else (
        lambda name, _r=record: getattr(_r, name, None)
    )
    out: Dict[str, Any] = {}
    for name in RECORD_FIELDS:
        value = get(name)
        if name in _INT_LIST_FIELDS:
            out[name] = [int(v) for v in (value or [])]
        elif name in _BOOL_FIELDS:
            out[name] = bool(value)
        elif value is None:
            out[name] = None
        elif name in _INT_FIELDS:
            out[name] = int(value)
        else:
            out[name] = float(value)
    return out


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, shortest-repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class HistoryDigest:
    """Streaming SHA-256 over a run's canonical round records.

    Feed records in round order with :meth:`update`; the digest at any
    point covers exactly the rounds fed so far, so the trainer can stream
    it alongside the run and stamp the final value into the run footer
    without retaining the history.
    """

    algorithm = DIGEST_ALGORITHM

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.rounds = 0

    def update(self, record: Any) -> Dict[str, Any]:
        """Fold one record in; returns its canonical form for reuse."""
        canonical = canonical_record(record)
        self._sha.update((canonical_json(canonical) + "\n").encode("utf-8"))
        self.rounds += 1
        return canonical

    def hexdigest(self) -> str:
        """Hex digest over every record folded in so far."""
        return self._sha.hexdigest()


def history_digest(records: Sequence[Any]) -> str:
    """Digest of a full history in one call (see :class:`HistoryDigest`)."""
    digest = HistoryDigest()
    for record in records:
        digest.update(record)
    return digest.hexdigest()


def _git_sha() -> Optional[str]:
    """The producing checkout's commit, or ``None`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_info() -> Dict[str, Any]:
    """Provenance of the producing process, for the run manifest.

    Everything here but ``numerics_epoch`` is informational — replay
    compares histories, not environments — but a digest mismatch report is
    far more actionable when the artifact says which package version,
    platform, and commit produced it.  The epoch decides *how* replay
    compares: bit-for-bit within one, to a bound across two.
    """
    import numpy

    from .. import __version__

    return {
        "package_version": __version__,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numerics_epoch": NUMERICS_EPOCH,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else None,
    }


class RunLedger:
    """The write side of one run's ledger, in the order an artifact needs.

    Manifest once, before the first round's events; round records *one
    round behind* — the trainer may still fill in the last record's
    evaluation at end-of-run, so :meth:`add_round` holds the newest record
    back and canonicalizes, digests and emits the one before it, which no
    longer changes; :meth:`flush` (end of ``run``, or close) emits the held
    one.  A ledger cut off mid-run therefore holds every round but the
    last one queued.  Footer once, at close.  Nothing is emitted through a
    disabled telemetry.
    """

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self._digest = HistoryDigest()
        self._pending: Optional[Any] = None
        self._wall = 0.0
        self._last: Dict[str, Any] = {}
        self._opened = False
        self._sealed = False

    def open(self, describe: Callable[..., Dict[str, Any]], *args: Any) -> None:
        """Emit the manifest ``describe(*args)`` plus the environment, once."""
        if self._opened or not self.telemetry.enabled:
            return
        self._opened = True
        self.telemetry.manifest(**describe(*args), environment=environment_info())

    def add_round(self, record: Any, wall_seconds: float) -> None:
        """Hold a finished round's record back; emit the one before it."""
        self._wall += wall_seconds
        self.flush()
        self._pending = record

    def flush(self) -> None:
        """Canonicalize, digest, and emit the held-back record, if any."""
        if self._pending is not None:
            self._last = self._digest.update(self._pending)
            self.telemetry.round_record(self._pending.round_idx, self._last)
            self._pending = None

    def seal(self) -> None:
        """Emit the digest-bearing run footer, at most once.

        Only for runs whose manifest actually went out — an artifact's
        footer is its end-of-file marker, so readers treat its absence as
        truncation.
        """
        if self._sealed or not self._opened:
            return
        self._sealed = True
        self.flush()
        self.telemetry.run_footer(
            rounds=self._digest.rounds,
            wall_seconds=self._wall,
            digest=self._digest.hexdigest(),
            algorithm=DIGEST_ALGORITHM,
            final_train_loss=self._last.get("train_loss"),
            final_test_accuracy=self._last.get("test_accuracy"),
        )


# --------------------------------------------------------------------- #
# Run artifacts: loading and structural verification
# --------------------------------------------------------------------- #
@dataclass
class RunArtifact:
    """One run's events, split by type, as loaded from a JSONL artifact.

    ``round_records`` maps round index -> canonical record dict.
    ``footer`` is ``None`` when the artifact was truncated before the run
    footer.
    """

    path: str
    manifest: Dict[str, Any]
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    round_records: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    footer: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def schema(self) -> int:
        return int(self.manifest.get("schema", 1))

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", ""))

    @property
    def label(self) -> str:
        return str(self.manifest.get("label", ""))

    @property
    def executor(self) -> str:
        return str(self.manifest.get("executor", ""))

    @property
    def numerics_epoch(self) -> int:
        """The :data:`NUMERICS_EPOCH` of the recording tree (0 if unrecorded)."""
        return int((self.manifest.get("environment") or {}).get("numerics_epoch", 0))

    @property
    def rounds(self) -> List[int]:
        """Round indices holding a round record, in order."""
        return sorted(self.round_records)

    def history_records(self) -> List[Dict[str, Any]]:
        """Canonical round records in round order."""
        return [self.round_records[r] for r in sorted(self.round_records)]

    def recorded_digest(self) -> Optional[str]:
        """The footer's digest, or ``None`` without a footer."""
        if self.footer is None:
            return None
        return self.footer.get("digest")

    def computed_digest(self) -> str:
        """Digest recomputed from the artifact's own round records."""
        # Re-canonicalized: JSON round-trips floats exactly, so this equals
        # the producer's digest iff the records are untouched.
        return history_digest(self.history_records())


def split_runs(
    events: Sequence[Dict[str, Any]], path: str = "<events>"
) -> List[RunArtifact]:
    """Partition an event stream into per-run artifacts at manifest lines.

    Multi-run artifacts are produced by appending sinks (the bench harness
    chains one manifest per measured configuration into a single file).
    """
    runs: List[RunArtifact] = []
    current: Optional[RunArtifact] = None
    for event in events:
        etype = event.get("type")
        if etype == "manifest":
            current = RunArtifact(path=path, manifest=event)
            runs.append(current)
            continue
        if current is None:
            raise ValueError(
                f"{path}: event stream does not start with a manifest "
                f"(first event type: {etype!r})"
            )
        current.events.append(event)
        if etype == "span":
            current.spans.append(event)
        elif etype == "metric":
            current.metrics.append(event)
        elif etype == "round_record":
            current.round_records[int(event["round"])] = event["record"]
        elif etype == "run_footer":
            current.footer = event
    if not runs:
        raise ValueError(f"{path}: no manifest event found")
    return runs


def load_runs(path: str, strict: bool = False) -> List[RunArtifact]:
    """Load every run from a (possibly multi-run) JSONL artifact."""
    return split_runs(read_jsonl(path, strict=strict), path=str(path))


def load_run(path: str, run: int = 0, strict: bool = False) -> RunArtifact:
    """Load one run from a JSONL artifact (``run`` selects within chains)."""
    runs = load_runs(path, strict=strict)
    if not 0 <= run < len(runs):
        raise IndexError(
            f"{path}: run index {run} out of range (artifact holds "
            f"{len(runs)} run{'s' if len(runs) != 1 else ''})"
        )
    return runs[run]


def verify_artifact(artifact: RunArtifact) -> List[str]:
    """Structural audit of one run artifact; returns human-readable issues.

    Checks:

    * the manifest schema version is the one the readers support (any
      other version is reported and nothing further is audited);
    * round records are contiguous from round 0 (no holes);
    * the run footer is present (its absence is truncation evidence);
    * the footer's round count matches the records;
    * the footer digest matches the digest recomputed from the records.

    An empty list means the artifact is internally consistent.
    """
    if artifact.schema != SCHEMA_VERSION:
        return [
            f"unsupported schema version {artifact.schema} "
            f"(supported: {SCHEMA_VERSION})"
        ]
    issues: List[str] = []
    rounds = sorted(artifact.round_records)
    if rounds and rounds != list(range(rounds[0], rounds[-1] + 1)):
        missing = sorted(
            set(range(rounds[0], rounds[-1] + 1)) - set(rounds)
        )
        issues.append(f"round records have holes: missing rounds {missing}")
    if artifact.footer is None:
        issues.append(
            "no run_footer event: the artifact was truncated (crash or "
            "unclosed sink)"
        )
        return issues
    footer_rounds = artifact.footer.get("rounds")
    if footer_rounds != len(artifact.round_records):
        issues.append(
            f"footer claims {footer_rounds} rounds but the artifact holds "
            f"{len(artifact.round_records)} round records"
        )
    recorded = artifact.recorded_digest()
    computed = artifact.computed_digest()
    if recorded != computed:
        issues.append(
            f"history digest mismatch: footer says {recorded}, records "
            f"hash to {computed} (the artifact was modified)"
        )
    algorithm = artifact.footer.get("algorithm")
    if algorithm != DIGEST_ALGORITHM:
        issues.append(
            f"unknown digest algorithm {algorithm!r} "
            f"(expected {DIGEST_ALGORITHM!r})"
        )
    return issues
