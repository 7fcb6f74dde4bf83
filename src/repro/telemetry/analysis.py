"""Run-artifact analysis: phase breakdowns, timelines, diffs, and checks.

Pure post-hoc consumers of :class:`~repro.telemetry.ledger.RunArtifact` —
nothing here re-executes a run (that is :mod:`repro.telemetry.replay`).
The :mod:`repro.trace` CLI is a thin argparse shell over these functions:

* :func:`summarize_run` / :func:`format_summary` — one-screen run digest
  (identity, wall-clock, final metrics, ledger verification, per-phase
  duration percentiles, span-tiling validation).
* :func:`timeline` — per-round ASCII bars segmented by phase.
* :func:`diff_runs` — field-level history comparison between two runs
  with a float tolerance.
* :func:`check_runs` — structural ledger verification of every run in a
  (possibly multi-run) artifact.  Throughput is gated elsewhere, by
  ``python bench/run.py compare``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .events import summarize
from .ledger import RECORD_FIELDS, RunArtifact, verify_artifact

__all__ = [
    "CheckReport",
    "RunDiff",
    "check_runs",
    "comms_totals",
    "diff_runs",
    "format_summary",
    "phase_breakdown",
    "summarize_run",
    "tiling_issues",
    "timeline",
]

#: Round-phase span names, in execution order (used for timeline segments).
PHASE_ORDER = (
    "phase:select",
    "phase:local_solve",
    "phase:aggregate",
    "phase:evaluate",
)

#: Timeline bar glyph per phase (residual/untracked time renders as ``.``).
PHASE_GLYPHS = {
    "phase:select": "s",
    "phase:local_solve": "#",
    "phase:aggregate": "a",
    "phase:evaluate": "e",
}

#: Record fields holding floats — diffed with a tolerance; everything else
#: (ints, bools, id lists) must match exactly.
FLOAT_FIELDS = (
    "train_loss",
    "test_accuracy",
    "dissimilarity",
    "mu",
    "train_loss_ci",
    "accuracy_ci",
    "gamma_mean",
    "gamma_max",
)


# --------------------------------------------------------------------- #
# Phase breakdown + tiling
# --------------------------------------------------------------------- #
def phase_breakdown(artifact: RunArtifact) -> Dict[str, Dict[str, Any]]:
    """Duration percentiles per span name (``summarize`` stats)."""
    durations: Dict[str, List[float]] = {}
    for span in artifact.spans:
        durations.setdefault(span["name"], []).append(span["duration"])
    return {name: summarize(vals) for name, vals in sorted(durations.items())}


def _round_spans(artifact: RunArtifact) -> Dict[int, Dict[str, float]]:
    """Per-round map of span name -> summed duration (rounds only)."""
    rounds: Dict[int, Dict[str, float]] = {}
    for span in artifact.spans:
        round_idx = span.get("round")
        if round_idx is None:
            continue
        per = rounds.setdefault(int(round_idx), {})
        per[span["name"]] = per.get(span["name"], 0.0) + span["duration"]
    return rounds


def tiling_issues(artifact: RunArtifact, slack: float = 0.5) -> List[str]:
    """Validate that phase spans tile their round span.

    The four ``phase:*`` spans are timed back-to-back inside the ``round``
    span, so per round their sum must not exceed the round duration
    (beyond float/timer noise), and the untracked residual should stay
    under ``slack`` of the round — a larger gap means a phase went
    uninstrumented.  Sub-phase spans (``solve:*``, ``cohort:*``,
    ``eval:*``) nest inside phases and are excluded from the sum.
    """
    issues: List[str] = []
    for round_idx, per in sorted(_round_spans(artifact).items()):
        if "round" not in per:
            continue
        round_dur = per["round"]
        phase_sum = sum(per.get(name, 0.0) for name in PHASE_ORDER)
        if phase_sum > round_dur * 1.02 + 1e-6:
            issues.append(
                f"round {round_idx}: phase spans sum to {phase_sum:.6f}s, "
                f"exceeding the round span {round_dur:.6f}s (overlap?)"
            )
        elif round_dur > 1e-4 and (round_dur - phase_sum) > slack * round_dur:
            issues.append(
                f"round {round_idx}: {round_dur - phase_sum:.6f}s of the "
                f"{round_dur:.6f}s round is outside any phase span "
                f"(> {slack:.0%} untracked)"
            )
    return issues


# --------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------- #
def comms_totals(artifact: RunArtifact) -> Optional[Dict[str, float]]:
    """Aggregate wire-byte counters emitted by :mod:`repro.comms`.

    Sums the ``comms.bytes_up`` / ``comms.bytes_down`` counters and
    averages the per-round ``comms.compression_ratio`` gauge.  Returns
    ``None`` when the run carried no comms telemetry (dense transport).
    """
    bytes_up = bytes_down = 0.0
    ratios: List[float] = []
    seen = False
    for event in artifact.metrics:
        name = event.get("name")
        if name == "comms.bytes_up":
            bytes_up += event.get("value") or 0.0
            seen = True
        elif name == "comms.bytes_down":
            bytes_down += event.get("value") or 0.0
            seen = True
        elif name == "comms.compression_ratio":
            ratios.append(event.get("value") or 0.0)
            seen = True
    if not seen:
        return None
    return {
        "bytes_up": bytes_up,
        "bytes_down": bytes_down,
        "compression_ratio": (
            sum(ratios) / len(ratios) if ratios else 1.0
        ),
    }


def summarize_run(artifact: RunArtifact) -> Dict[str, Any]:
    """Structured one-run digest (see :func:`format_summary` to render)."""
    records = artifact.history_records()
    footer = artifact.footer or {}
    manifest = artifact.manifest or {}
    last = records[-1] if records else {}
    return {
        "path": artifact.path,
        "run_id": artifact.run_id,
        "label": artifact.label,
        "executor": artifact.executor,
        "schema": artifact.schema,
        "rounds": len(records),
        "wall_seconds": footer.get("wall_seconds"),
        "final_train_loss": footer.get("final_train_loss", last.get("train_loss")),
        "final_test_accuracy": footer.get(
            "final_test_accuracy", last.get("test_accuracy")
        ),
        "digest": footer.get("digest"),
        "seed": manifest.get("seed"),
        "events": len(artifact.events),
        "comms": comms_totals(artifact),
        "issues": verify_artifact(artifact),
        "tiling_issues": tiling_issues(artifact),
        "phases": phase_breakdown(artifact),
    }


def format_summary(summary: Dict[str, Any]) -> str:
    """Render :func:`summarize_run` output for a terminal."""
    lines = [
        f"run {summary['run_id'] or '<no id>'} "
        f"label={summary['label'] or '<unlabeled>'} "
        f"executor={summary['executor'] or '?'} schema={summary['schema']}",
        f"  rounds={summary['rounds']} events={summary['events']}"
        + (
            f" wall={summary['wall_seconds']:.3f}s"
            if summary["wall_seconds"] is not None
            else " wall=? (no footer)"
        ),
    ]
    loss, acc = summary["final_train_loss"], summary["final_test_accuracy"]
    final = []
    if loss is not None:
        final.append(f"loss={loss:.6f}")
    if acc is not None:
        final.append(f"acc={acc:.4f}")
    if final:
        lines.append("  final: " + " ".join(final))
    digest = summary["digest"]
    if digest:
        lines.append(f"  digest: {digest}")
    comms = summary.get("comms")
    if comms is not None:
        lines.append(
            f"  comms: up={comms['bytes_up']:,.0f}B "
            f"down={comms['bytes_down']:,.0f}B "
            f"ratio={comms['compression_ratio']:.2f}x"
        )
    if summary["issues"]:
        lines.append(f"  LEDGER ISSUES ({len(summary['issues'])}):")
        lines.extend(f"    - {issue}" for issue in summary["issues"])
    else:
        lines.append("  ledger: verified (no issues)")
    if summary["tiling_issues"]:
        lines.append(f"  SPAN TILING ISSUES ({len(summary['tiling_issues'])}):")
        lines.extend(f"    - {issue}" for issue in summary["tiling_issues"])
    phases = summary["phases"]
    if phases:
        lines.append("  spans (seconds):")
        width = max(len(name) for name in phases)
        for name, stats in phases.items():
            if not stats.get("count"):
                continue
            total = stats["mean"] * stats["count"]
            lines.append(
                f"    {name:<{width}}  n={stats['count']:<5d} "
                f"total={total:.4f} p50={stats['p50']:.6f} "
                f"p95={stats['p95']:.6f} p99={stats['p99']:.6f}"
            )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Timeline
# --------------------------------------------------------------------- #
def timeline(artifact: RunArtifact, width: int = 48) -> str:
    """Per-round ASCII bars segmented by phase.

    Bars scale to the slowest round; glyphs mark phases (``s`` select,
    ``#`` local solve, ``a`` aggregate, ``e`` evaluate, ``.`` untracked),
    and each row appends the round's loss/accuracy/cohort from its record.
    """
    per_round = _round_spans(artifact)
    rounds = sorted(r for r, per in per_round.items() if "round" in per)
    if not rounds:
        return "(no round spans in artifact)"
    max_dur = max(per_round[r]["round"] for r in rounds) or 1.0
    records = {
        rec.get("round_idx"): rec for rec in artifact.history_records()
    }
    lines = []
    for r in rounds:
        per = per_round[r]
        round_dur = per["round"]
        bar_len = max(1, round(width * round_dur / max_dur))
        segments = []
        used = 0.0
        for name in PHASE_ORDER:
            dur = per.get(name, 0.0)
            used += dur
            segments.append((PHASE_GLYPHS[name], dur))
        segments.append((".", max(0.0, round_dur - used)))
        bar = ""
        for glyph, dur in segments:
            n = round(bar_len * dur / round_dur) if round_dur > 0 else 0
            bar += glyph * n
        bar = (bar[:bar_len] or PHASE_GLYPHS["phase:local_solve"]).ljust(width)
        tail = f"{round_dur:8.4f}s"
        rec = records.get(r)
        if rec is not None:
            if rec.get("train_loss") is not None:
                tail += f" loss={rec['train_loss']:.4f}"
            if rec.get("test_accuracy") is not None:
                tail += f" acc={rec['test_accuracy']:.4f}"
            tail += f" k={len(rec.get('selected') or [])}"
            stragglers = rec.get("stragglers") or []
            dropped = rec.get("dropped") or []
            if stragglers:
                tail += f" strag={len(stragglers)}"
            if dropped:
                tail += f" drop={len(dropped)}"
        lines.append(f"r{r:04d} |{bar}| {tail}")
    lines.append(
        "legend: s=select #=local_solve a=aggregate e=evaluate .=untracked"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Diffing
# --------------------------------------------------------------------- #
@dataclass
class RunDiff:
    """Field-level history comparison between two run artifacts."""

    label_a: str
    label_b: str
    rounds_a: int
    rounds_b: int
    compared: int
    divergences: List[Tuple[int, str, Any, Any]] = field(default_factory=list)
    tol: float = 0.0

    @property
    def matches(self) -> bool:
        return not self.divergences and self.rounds_a == self.rounds_b

    def describe(self) -> str:
        head = (
            f"diff {self.label_a or 'A'} vs {self.label_b or 'B'} "
            f"(tol={self.tol:g})"
        )
        lines = [head]
        if self.rounds_a != self.rounds_b:
            lines.append(
                f"  round counts differ: {self.rounds_a} vs {self.rounds_b}"
            )
        if not self.divergences:
            lines.append(
                f"  IDENTICAL over {self.compared} rounds"
                if self.matches
                else f"  no field divergence over the {self.compared} shared rounds"
            )
            return "\n".join(lines)
        lines.append(f"  DIVERGES ({len(self.divergences)} fields):")
        for round_idx, name, va, vb in self.divergences[:20]:
            lines.append(f"    round {round_idx} {name}: {va!r} vs {vb!r}")
        extra = len(self.divergences) - 20
        if extra > 0:
            lines.append(f"    ... and {extra} more")
        return "\n".join(lines)


def diff_runs(
    a: RunArtifact, b: RunArtifact, tol: float = 0.0
) -> RunDiff:
    """Compare two runs' histories field by field.

    Float-valued record fields admit an absolute tolerance ``tol``
    (``0.0`` demands bit-identity); integer, boolean, and id-list fields
    always compare exactly.  A side without round records has no history
    to compare: that is a ``ValueError`` carrying the artifact's
    :func:`~repro.telemetry.ledger.verify_artifact` issues (an unsupported
    schema version, a truncation), never an empty "identical" diff.
    """
    for artifact in (a, b):
        if not artifact.round_records:
            raise ValueError(
                "; ".join(
                    [f"{artifact.path}: no round records to diff"]
                    + verify_artifact(artifact)
                )
            )
    recs_a, recs_b = a.history_records(), b.history_records()
    compared = min(len(recs_a), len(recs_b))
    divergences: List[Tuple[int, str, Any, Any]] = []
    for idx in range(compared):
        ra, rb = recs_a[idx], recs_b[idx]
        round_idx = ra.get("round_idx", idx)
        for name in RECORD_FIELDS:
            va, vb = ra.get(name), rb.get(name)
            if va == vb:
                continue
            if (
                name in FLOAT_FIELDS
                and isinstance(va, (int, float))
                and isinstance(vb, (int, float))
                and abs(va - vb) <= tol
            ):
                continue
            divergences.append((round_idx, name, va, vb))
    return RunDiff(
        label_a=a.label,
        label_b=b.label,
        rounds_a=len(recs_a),
        rounds_b=len(recs_b),
        compared=compared,
        divergences=divergences,
        tol=tol,
    )


# --------------------------------------------------------------------- #
# Structural check
# --------------------------------------------------------------------- #
@dataclass
class CheckReport:
    """Outcome of verifying every run of an artifact."""

    issues: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def describe(self) -> str:
        if not self.issues:
            return "CHECK OK"
        lines = [f"CHECK FAILED ({len(self.issues)} issues):"]
        lines.extend(f"  - {issue}" for issue in self.issues)
        return "\n".join(lines)


def check_runs(artifacts: Sequence[RunArtifact]) -> CheckReport:
    """Run :func:`~repro.telemetry.ledger.verify_artifact` over every run.

    Each issue (schema, digest, truncation, record holes) is reported
    under the run's label; an artifact holding no run at all is an issue
    too.
    """
    report = CheckReport()
    if not artifacts:
        report.issues.append("no runs found in artifact")
    for idx, artifact in enumerate(artifacts):
        who = artifact.label or artifact.run_id or f"run[{idx}]"
        for issue in verify_artifact(artifact):
            report.issues.append(f"{who}: {issue}")
    return report
