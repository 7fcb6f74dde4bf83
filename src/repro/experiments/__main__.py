"""Command-line entry point: run any paper experiment by id.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments figure1 --scale default --out ledgers/
    python -m repro.experiments table1 figure2 --scale smoke
    python -m repro.experiments all --scale default

Each figure prints its loss summary (and accuracy / dissimilarity where the
paper's figure reports them); with ``--out`` every cell also writes one
JSONL ledger under ``<out>/<figure>/`` that ``python -m repro.trace replay``
re-executes.  ``table1`` only prints.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..reporting.tables import format_table
from .figures import FIGURES, figure7_accuracy_rows, figure7_improvement, figure_cells, run_cells
from .table1 import render_table1

#: Every experiment id with its ``--list`` line, in paper order.
EXPERIMENTS = {
    "table1": "Statistics of the four real federated datasets",
    **{figure_id: figure.summary for figure_id, figure in FIGURES.items()},
}


def _run_one(experiment_id: str, scale: str, seed: int, out: Optional[Path]) -> None:
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    print(f"== {experiment_id}: {EXPERIMENTS[experiment_id]} (scale={scale}) ==")
    start = time.time()

    if experiment_id == "table1":
        print(render_table1(scale=scale, seed=seed))
    else:
        result = run_cells(figure_cells(experiment_id, scale, seed), out=out)
        print(result.render(metric="loss", charts=False))
        if experiment_id in ("figure2", "figure8"):
            print(result.render(metric="dissimilarity", charts=False))
        if experiment_id in ("figure2", "figure5", "figure9"):
            print(result.render(metric="accuracy", charts=False))
        if experiment_id == "figure1":
            rows = figure7_accuracy_rows(result)
            print(format_table(rows, title="Figure 7: accuracy at stopping point"))
            try:
                improvement = figure7_improvement(result)
                print(
                    f"\nFedProx(best mu) vs FedAvg at 90% stragglers: "
                    f"{improvement:+.3f} absolute accuracy (paper: +0.22)"
                )
            except ValueError:
                pass

    elapsed = time.time() - start
    print(f"-- {experiment_id} done in {elapsed:.1f}s --\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures from the FedProx paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=["smoke", "default", "paper"],
        help="size preset (default: smoke)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory for one JSONL ledger per figure cell",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiment ids"
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        rows = [
            {"id": experiment_id, "description": description}
            for experiment_id, description in EXPERIMENTS.items()
        ]
        print(format_table(rows, title="Available experiments"))
        return 0

    ids = (
        list(EXPERIMENTS)
        if args.experiments == ["all"]
        else args.experiments
    )
    for experiment_id in ids:
        _run_one(experiment_id, args.scale, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
