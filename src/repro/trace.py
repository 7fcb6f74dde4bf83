"""``python -m repro.trace`` — inspect, replay, and verify run artifacts.

Subcommands over the JSONL run ledgers written by
:class:`~repro.telemetry.sinks.JSONLSink`:

* ``summarize RUN.jsonl`` — identity, wall-clock, final metrics, ledger
  verification (digest/truncation/tampering), per-phase percentiles.
* ``timeline RUN.jsonl`` — per-round ASCII bars segmented by phase.
* ``diff A.jsonl B.jsonl [--tol X]`` — field-level history comparison
  (e.g. a serial vs cohort pair; ``--tol 0`` demands bit-identity).
* ``replay RUN.jsonl [--rounds N]`` — rebuild the trainer from the
  manifest, re-execute (or only the first ``N`` rounds), and assert the
  recorded history reproduces bit-for-bit; a ledger recorded under another
  numerics epoch is held to exact non-float fields and a relative bound
  on floats instead, and says so.
* ``check RUN.jsonl`` — structural ledger verification of every run in
  the artifact (throughput is gated by ``python bench/run.py compare``).

Exit status is 0 on success and 1 when the inspected artifact fails
(ledger issues, replay divergence, diff divergence, check failures), so
every subcommand works as a CI gate.  Multi-run artifacts (appended
sinks) are addressed with ``--run N``; ``--run all`` where supported.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .telemetry.analysis import (
    check_runs,
    diff_runs,
    format_summary,
    summarize_run,
    timeline,
)
from .telemetry.ledger import RunArtifact, load_run, load_runs
from .telemetry.replay import ReplayError, replay_run

__all__ = ["main"]


def _select_runs(path: str, which: str) -> List[RunArtifact]:
    """Load the requested run(s): an index or ``all``."""
    if which == "all":
        return load_runs(path)
    return [load_run(path, run=int(which))]


def _cmd_summarize(args: argparse.Namespace) -> int:
    status = 0
    for artifact in _select_runs(args.artifact, args.run):
        summary = summarize_run(artifact)
        print(format_summary(summary))
        if summary["issues"] or (args.strict and summary["tiling_issues"]):
            status = 1
    return status


def _cmd_timeline(args: argparse.Namespace) -> int:
    artifact = load_run(args.artifact, run=int(args.run))
    print(timeline(artifact, width=args.width))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a = load_run(args.artifact_a, run=args.run_a)
    b = load_run(args.artifact_b, run=args.run_b)
    try:
        result = diff_runs(a, b, tol=args.tol)
    except ValueError as exc:
        print(f"diff impossible: {exc}", file=sys.stderr)
        return 1
    print(result.describe())
    return 0 if result.matches else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        report = replay_run(
            args.artifact, run=int(args.run), num_rounds=args.rounds
        )
    except ReplayError as exc:
        print(f"replay impossible: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    return 0 if report.matches and not report.issues else 1


def _cmd_check(args: argparse.Namespace) -> int:
    report = check_runs(load_runs(args.artifact))
    print(report.describe())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "summarize", help="one-screen run digest with ledger verification"
    )
    p.add_argument("artifact", help="JSONL run artifact")
    p.add_argument(
        "--run", default="all",
        help="run index in a multi-run artifact, or 'all' (default)",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="also fail on span-tiling issues",
    )
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("timeline", help="per-round ASCII phase timeline")
    p.add_argument("artifact")
    p.add_argument("--run", default="0", help="run index (default 0)")
    p.add_argument("--width", type=int, default=48, help="bar width in chars")
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser(
        "diff", help="field-level history comparison of two runs"
    )
    p.add_argument("artifact_a")
    p.add_argument("artifact_b")
    p.add_argument("--run-a", type=int, default=0, help="run index in A")
    p.add_argument("--run-b", type=int, default=0, help="run index in B")
    p.add_argument(
        "--tol", type=float, default=0.0,
        help="absolute tolerance for float fields (default 0 = bit-identity)",
    )
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "replay", help="re-execute a run and assert bit-identical history"
    )
    p.add_argument("artifact")
    p.add_argument("--run", default="0", help="run index (default 0)")
    p.add_argument(
        "--rounds", type=int, default=None,
        help="rounds to re-execute (default: all recorded; fewer checks a prefix)",
    )
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "check", help="verify the ledger of every run in an artifact"
    )
    p.add_argument("artifact", help="JSONL run artifact (possibly multi-run)")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
