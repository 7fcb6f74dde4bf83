"""``python -m repro.trace`` — inspect, replay, and verify run ledgers.

Subcommands over the one-run JSONL ledgers written by
:class:`~repro.telemetry.sinks.JSONLSink`:

* ``summarize RUN.jsonl`` — identity, wall-clock, final metrics, wire
  bytes, local work and simulated time, ledger verification
  (digest/truncation/tampering), per-phase percentiles by clock.
* ``timeline RUN.jsonl`` — per-round ASCII bars segmented by phase.
* ``diff A.jsonl B.jsonl [--tol X]`` — field-level history comparison
  (e.g. a serial vs cohort pair) by the comparator replay uses: float
  fields may deviate by ``X`` relative, everything else compares exactly,
  and ``--tol 0`` (the default) demands bit-identity.
* ``replay RUN.jsonl [--rounds N]`` — rebuild the trainer from the
  manifest, re-execute (or only the first ``N`` rounds), and assert the
  recorded history reproduces bit-for-bit; a ledger recorded under another
  numerics epoch is held to exact non-float fields and a relative bound
  on floats instead, and says so.
* ``check RUN.jsonl`` — structural verification of the ledger
  (throughput is gated by ``python bench/run.py compare``).

Exit status is 0 on success and 1 when the inspected ledger fails
(ledger issues, replay divergence, diff divergence, check failures), so
every subcommand works as a CI gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .telemetry.analysis import format_summary, summarize_run, timeline
from .telemetry.ledger import load_run, verify_artifact
from .telemetry.replay import ReplayError, compare_histories, replay_run

__all__ = ["main"]

#: Divergent fields ``diff`` prints before summarizing the rest.
DIFF_SHOWN = 20


def _cmd_summarize(args: argparse.Namespace) -> int:
    summary = summarize_run(load_run(args.artifact))
    print(format_summary(summary))
    return 1 if summary["issues"] or (args.strict and summary["tiling_issues"]) else 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    print(timeline(load_run(args.artifact), width=args.width))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a, b = load_run(args.artifact_a), load_run(args.artifact_b)
    for artifact in (a, b):
        if not artifact.round_records:
            issues = [f"{artifact.path}: no round records to diff"]
            issues += verify_artifact(artifact)
            print(f"diff impossible: {'; '.join(issues)}", file=sys.stderr)
            return 1
    recs_a, recs_b = a.history_records(), b.history_records()
    mismatches, drift = compare_histories(recs_a, recs_b, args.tol)
    print(f"diff {a.label or 'A'} vs {b.label or 'B'} (relative tol={args.tol:g})")
    same_length = len(recs_a) == len(recs_b)
    if not same_length:
        print(f"  round counts differ: {len(recs_a)} vs {len(recs_b)}")
    if mismatches:
        print(f"  DIVERGES ({len(mismatches)} fields):")
        for m in mismatches[:DIFF_SHOWN]:
            print(f"    round {m.round_idx} {m.field}: {m.recorded!r} vs {m.replayed!r}")
        if len(mismatches) > DIFF_SHOWN:
            print(f"    ... and {len(mismatches) - DIFF_SHOWN} more")
    elif same_length:
        drifted = "" if drift is None else (
            f", max relative deviation {drift.deviation:.1e} "
            f"(`{drift.field}`, round {drift.round_idx})"
        )
        print(f"  IDENTICAL over {len(recs_a)} rounds{drifted}")
    return 0 if same_length and not mismatches else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        report = replay_run(args.artifact, num_rounds=args.rounds)
    except ReplayError as exc:
        print(f"replay impossible: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    return 0 if report.matches and not report.issues else 1


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        issues = verify_artifact(load_run(args.artifact))
    except ValueError as exc:
        issues = [str(exc)]
    if not issues:
        print("CHECK OK")
        return 0
    print(f"CHECK FAILED ({len(issues)} issues):")
    for issue in issues:
        print(f"  - {issue}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "summarize", help="one-screen run digest with ledger verification"
    )
    p.add_argument("artifact", help="JSONL run ledger")
    p.add_argument(
        "--strict", action="store_true",
        help="also fail on span-tiling issues",
    )
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("timeline", help="per-round ASCII phase timeline")
    p.add_argument("artifact")
    p.add_argument("--width", type=int, default=48, help="bar width in chars")
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser(
        "diff", help="field-level history comparison of two runs"
    )
    p.add_argument("artifact_a")
    p.add_argument("artifact_b")
    p.add_argument(
        "--tol", type=float, default=0.0,
        help="relative tolerance for float fields (default 0 = bit-identity)",
    )
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "replay", help="re-execute a run and assert bit-identical history"
    )
    p.add_argument("artifact")
    p.add_argument(
        "--rounds", type=int, default=None,
        help="rounds to re-execute (default: all recorded; fewer checks a prefix)",
    )
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("check", help="verify a run ledger's structure and digest")
    p.add_argument("artifact", help="JSONL run ledger")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
