"""Run-artifact analysis: summaries, phase breakdowns, and timelines.

Pure post-hoc consumers of :class:`~repro.telemetry.ledger.RunArtifact` —
nothing here re-executes a run (that is :mod:`repro.telemetry.replay`).
The :mod:`repro.trace` CLI is a thin argparse shell over these functions:

* :func:`summarize_run` / :func:`format_summary` — one-screen run digest
  (identity, wall-clock, final metrics, wire bytes, local work and
  simulated time, fault totals, ledger verification, per-phase duration
  percentiles by clock, span-tiling validation).
* :func:`timeline` — per-round ASCII bars segmented by phase.

Comparing two histories is :func:`repro.telemetry.replay.compare_histories`'
job, for ``trace diff`` and replay alike; throughput is gated elsewhere, by
``python bench/run.py compare``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .events import FAULT_EVENTS, UNIT_SECONDS, summarize
from .ledger import RunArtifact, verify_artifact

__all__ = [
    "comms_totals",
    "fault_totals",
    "format_summary",
    "phase_breakdown",
    "solve_totals",
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


# --------------------------------------------------------------------- #
# Phase breakdown + tiling
# --------------------------------------------------------------------- #
def phase_breakdown(
    artifact: RunArtifact, unit: str = UNIT_SECONDS
) -> Dict[str, Dict[str, Any]]:
    """Duration percentiles per span name (``summarize`` stats) over the
    spans timed in ``unit`` — wall seconds unless told otherwise."""
    durations: Dict[str, List[float]] = {}
    for span in artifact.spans:
        if span.get("unit", UNIT_SECONDS) == unit:
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


def fault_totals(artifact: RunArtifact) -> Dict[str, int]:
    """The run's fault counters, recounted from its events.

    Keyed like :class:`~repro.faults.policy.FaultStats` and equal to the
    trainer's ``fault_stats`` at the point the ledger was cut: each counter
    is the number of its :data:`~repro.telemetry.events.FAULT_EVENTS`
    events, ``offline`` the ``fault:injected`` events with
    ``fault="dropout"`` and ``quarantined_clients`` the
    ``fault:quarantine`` events with ``quarantined=True``.  All zero for a
    run without fault injection.
    """
    key_of = {name: key for key, name in FAULT_EVENTS.items()}
    totals = dict.fromkeys((*FAULT_EVENTS, "offline", "quarantined_clients"), 0)
    for event in artifact.metrics:
        key = key_of.get(event.get("name"))
        if key is None:
            continue
        totals[key] += 1
        if event.get("fault") == "dropout":
            totals["offline"] += 1
        if event.get("quarantined"):
            totals["quarantined_clients"] += 1
    return totals


def solve_totals(artifact: RunArtifact) -> Optional[Dict[str, Any]]:
    """Local work and simulated time, read off the ``solve:client`` spans.

    ``solves`` counts them and ``epochs`` sums their local epochs.  When
    they state their mini-batch ``steps``, ``steps`` sums them and
    ``us_per_step`` is their wall ``solve`` seconds per step, in µs.  When
    they carry the clock stamp of a clock-driven run, ``simulated`` holds
    the mean and max over rounds of the round's critical path in cycles
    (its slowest download + compute + upload) and the counts of network-
    and compute-bound solves.  ``None`` for a run without solve spans.
    """
    solves = [s for s in artifact.spans if s["name"] == "solve:client"]
    if not solves:
        return None
    totals: Dict[str, Any] = {
        "solves": len(solves),
        "epochs": sum(s.get("epochs", 0.0) for s in solves),
    }
    stepped = [s for s in solves if "steps" in s]
    if stepped:
        steps = sum(s["steps"] for s in stepped)
        totals["steps"] = steps
        seconds = sum(s["duration"] for s in stepped)
        totals["us_per_step"] = 1e6 * seconds / max(steps, 1)
    stamped = [s for s in solves if "compute_cycles" in s]
    if stamped:
        paths: Dict[int, float] = {}
        for s in stamped:
            path = s["download_cycles"] + s["compute_cycles"] + s["upload_cycles"]
            paths[s["round"]] = max(paths.get(s["round"], 0.0), path)
        bottlenecks = [s["bottleneck"] for s in stamped]
        totals["simulated"] = {
            "critical_path_mean": sum(paths.values()) / len(paths),
            "critical_path_max": max(paths.values()),
            "network_bound": bottlenecks.count("network"),
            "compute_bound": bottlenecks.count("compute"),
        }
    return totals


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
        "work": solve_totals(artifact),
        "faults": fault_totals(artifact),
        "issues": verify_artifact(artifact),
        "tiling_issues": tiling_issues(artifact),
        "phases": phase_breakdown(artifact),
        "simulated_phases": {
            unit: phase_breakdown(artifact, unit)
            for unit in sorted({s.get("unit", UNIT_SECONDS) for s in artifact.spans})
            if unit != UNIT_SECONDS
        },
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
    work = summary.get("work")
    if work is not None:
        line = f"  work: solves={work['solves']} epochs={work['epochs']:.4f}"
        if "steps" in work:
            line += f" steps={work['steps']} ({work['us_per_step']:.1f} us/step)"
        lines.append(line)
        simulated = work.get("simulated")
        if simulated is not None:
            lines.append(
                f"  simulated: critical path "
                f"mean={simulated['critical_path_mean']:.4f} "
                f"max={simulated['critical_path_max']:.4f} cycles/round; "
                f"network-bound={simulated['network_bound']} "
                f"compute-bound={simulated['compute_bound']}"
            )
    faults = {k: v for k, v in (summary.get("faults") or {}).items() if v}
    if faults:
        lines.append(
            "  faults: " + " ".join(f"{k}={v}" for k, v in faults.items())
        )
    if summary["issues"]:
        lines.append(f"  LEDGER ISSUES ({len(summary['issues'])}):")
        lines.extend(f"    - {issue}" for issue in summary["issues"])
    else:
        lines.append("  ledger: verified (no issues)")
    if summary["tiling_issues"]:
        lines.append(f"  SPAN TILING ISSUES ({len(summary['tiling_issues'])}):")
        lines.extend(f"    - {issue}" for issue in summary["tiling_issues"])
    blocks = [("spans (seconds)", summary["phases"])] + [
        (f"simulated spans ({unit})", phases)
        for unit, phases in summary["simulated_phases"].items()
    ]
    for title, phases in blocks:
        if not phases:
            continue
        lines.append(f"  {title}:")
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
