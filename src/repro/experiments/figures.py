"""The paper's figures and ablations as cells, one runner, and the Figure 7
reductions.

A figure is a list of *cells*, one per line × panel.  A cell is a JSON-able
dict: the grouping keys ``figure``, ``panel``, ``environment`` and
``rounds``, plus exactly the manifest sections
:func:`~repro.telemetry.replay.rebuild_trainer` reads — ``label``, ``seed``,
``trainer_config`` and ``recipe``.  Fields at the trainer's defaults are
left out.  :func:`figure_cells` lists one figure's cells in paper order (a
caller that wants fewer filters the list); :func:`run_cells` builds every
cell through the replay builder, runs it, and groups the histories into
panels.  With ``out=`` each cell also writes one JSONL ledger that
``python -m repro.trace replay`` re-executes.

Every line of a panel shares its seed, so "the randomly selected devices,
the stragglers, and mini-batch orders" are the same for every method.  The
figures and the shape the paper reports:

* ``figure1`` (and Figure 7's accuracy view): five datasets × {0, 50, 90}%
  stragglers, E=20; FedAvg (drops stragglers) vs FedProx µ=0 (keeps
  partial work) vs FedProx at the best µ.  Stragglers hurt FedAvg more as
  their share grows; µ>0 is the most stable.  ``figure9`` (Figures 9/10)
  repeats it with E=1.
* ``figure2`` (and Figure 6): the four synthetic datasets, IID →
  Synthetic(1,1), no stragglers, µ ∈ {0, 1}, with the gradient-variance
  dissimilarity tracked.  Convergence degrades with heterogeneity at µ=0;
  µ>0 mitigates it.  ``figure8`` tracks the same metric on the five
  Figure 1 datasets.
* ``figure3`` / ``figure11``: the adaptive-µ heuristic (Section 5.3.2) from
  an adversarial start — µ=1 on IID data, µ=0 elsewhere — against fixed µ;
  it tracks the best fixed line.  Figure 3 shows two datasets, Figure 11
  all four.
* ``figure4-top`` / ``figure4-bottom`` (Appendix B): FedDane vs FedProx at
  µ ∈ {0, 1}, and FedDane with c ∈ {K, 2K, N} devices in its gradient
  estimate.  FedDane tracks FedProx on IID data and degrades elsewhere.
* ``figure5``: Synthetic-IID under {0, 10, 50, 90}% stragglers; IID data is
  robust to dropped devices.
* ``figure12``: uniform sampling + weighted average vs weighted sampling +
  simple average at µ ∈ {0, 1}.

The ``ablation-*`` ids (DESIGN.md §6) isolate one design choice each, at
one fixed size whatever the scale.
"""

from __future__ import annotations

import copy
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Union

from ..metrics.convergence import accuracy_at_outcome
from ..telemetry import JSONLSink, RunArtifact, Telemetry
from ..telemetry.replay import rebuild_trainer
from .configs import (
    FIGURE1_BEST_MU,
    MU_GRID,
    ExperimentScale,
    Workload,
    _logistic,
    figure1_workloads,
    get_scale,
    make_synthetic_iid_workload,
    synthetic_suite_workloads,
)
from .results import FigureResult, PanelResult

Cell = Dict[str, Any]

#: Adversarial initial µ per synthetic dataset (the paper's choice).
ADVERSARIAL_MU0 = {
    "Synthetic-IID": 1.0,
    "Synthetic(0,0)": 0.0,
    "Synthetic(0.5,0.5)": 0.0,
    "Synthetic(1,1)": 0.0,
}

#: Figure 12's two schemes: legend name -> registered sampling class.
SCHEMES = {
    "uniform sampling+weighted average": "UniformSamplingWeightedAverage",
    "weighted sampling+simple average": "WeightedSamplingSimpleAverage",
}


def _cell(
    workload: Workload,
    scale: Union[ExperimentScale, "_Sizes"],
    seed: int,
    label: str,
    environment: str = "",
    *,
    optimization: Optional[Dict[str, Any]] = None,
    cohorting: Optional[Dict[str, Any]] = None,
    track_dissimilarity: bool = False,
    solver: Optional[Dict[str, Any]] = None,
    sections: Optional[Dict[str, Any]] = None,
    trainer: str = "FederatedTrainer",
    **trainer_extras: Any,
) -> Cell:
    """One line of one panel: ``workload`` trained at ``scale``'s sizes (an
    :class:`ExperimentScale`, or an ablation's :class:`_Sizes`)."""
    config: Dict[str, Any] = {
        "optimization": {"epochs": scale.epochs, **(optimization or {})},
        "cohorting": {"clients_per_round": scale.clients_per_round, **(cohorting or {})},
        "evaluation": {"every": scale.eval_every},
        **(sections or {}),
    }
    if track_dissimilarity:
        config["diagnostics"] = {
            "track_dissimilarity": True,
            "dissimilarity_max_clients": scale.dissimilarity_max_clients,
        }
    return {
        "panel": workload.name,
        "environment": environment,
        "rounds": workload.rounds,
        "label": label,
        "seed": seed,
        "trainer_config": config,
        "recipe": {
            "trainer": trainer,
            **trainer_extras,
            "dataset": dict(workload.dataset_spec),
            "model": dict(workload.model_spec),
            "solver": solver or {
                "type": "SGDSolver",
                "learning_rate": workload.learning_rate,
                "batch_size": scale.batch_size,
            },
        },
    }


def _stragglers(level: float, seed: int) -> Dict[str, Any]:
    """The cohort section of a ``level`` straggler environment."""
    if level == 0:
        return {}
    return {"systems": {"type": "FractionStragglers", "fraction": level, "seed": seed}}


def _straggler_grid(epochs: Optional[float]):
    """Figures 1/7 (E from the scale) and 9/10 (E=1)."""

    def cells(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
        for name, workload in figure1_workloads(scale, seed).items():
            best = FIGURE1_BEST_MU[name]
            methods = [
                ("FedAvg", {"drop_stragglers": True}),
                ("FedProx (mu=0)", {}),
                (f"FedProx (mu={best:g})", {"mu": best}),
            ]
            for level in (0.0, 0.5, 0.9):
                for label, method in methods:
                    yield _cell(
                        workload, scale, seed, label, f"{int(level * 100)}% stragglers",
                        optimization={"epochs": epochs or scale.epochs, **method},
                        cohorting=_stragglers(level, seed),
                    )

    return cells


def _figure2(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    for workload in synthetic_suite_workloads(scale, seed).values():
        yield _cell(workload, scale, seed, "FedAvg (FedProx, mu=0)", track_dissimilarity=True)
        yield _cell(
            workload, scale, seed, "FedProx, mu=1",
            optimization={"mu": 1.0}, track_dissimilarity=True,
        )


def _figure8(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    for name, workload in figure1_workloads(scale, seed).items():
        best = FIGURE1_BEST_MU[name]
        yield _cell(workload, scale, seed, "FedAvg (FedProx, mu=0)", track_dissimilarity=True)
        yield _cell(
            workload, scale, seed, f"FedProx (mu={best:g})",
            optimization={"mu": best}, track_dissimilarity=True,
        )


def _adaptive_mu(datasets: Sequence[str]):
    """Figures 3 and 11 on the named synthetic datasets."""

    def cells(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
        for name, workload in synthetic_suite_workloads(scale, seed).items():
            if name not in datasets:
                continue
            controller = {"type": "AdaptiveMuController", "initial_mu": ADVERSARIAL_MU0[name]}
            yield _cell(workload, scale, seed, "FedAvg (FedProx, mu=0)")
            yield _cell(
                workload, scale, seed, "FedProx, dynamic mu",
                optimization={"mu_controller": controller},
            )
            yield _cell(workload, scale, seed, "FedProx, mu=1", optimization={"mu": 1.0})

    return cells


def _figure4_top(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    for workload in synthetic_suite_workloads(scale, seed).values():
        for trainer, name in (("FederatedTrainer", "FedProx"), ("FedDaneTrainer", "FedDane")):
            for mu in (0.0, 1.0):
                yield _cell(
                    workload, scale, seed, f"mu={mu:g}, {name}",
                    optimization={"mu": mu}, trainer=trainer,
                )


def _figure4_bottom(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    """c ∈ {K, 2K, N} scaled to the federation (the paper: 10/20/30 of 30)."""
    n, k = scale.synthetic_devices, scale.clients_per_round
    counts = sorted({min(k, n), min(2 * k, n), n})
    for workload in synthetic_suite_workloads(scale, seed).values():
        yield _cell(workload, scale, seed, "mu=0, FedProx")
        for c in counts:
            yield _cell(
                workload, scale, seed, f"mu=0, c={c}, FedDane",
                trainer="FedDaneTrainer", gradient_clients=c,
            )


def _figure5(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    workload = make_synthetic_iid_workload(scale, seed=seed)
    for level in (0.0, 0.1, 0.5, 0.9):
        for label, method in (("FedAvg", {"drop_stragglers": True}), ("FedProx (mu=0)", {})):
            yield _cell(
                workload, scale, seed, label, f"{int(level * 100)}% stragglers",
                optimization=method, cohorting=_stragglers(level, seed),
            )


def _figure12(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    for workload in synthetic_suite_workloads(scale, seed).values():
        for scheme_name, scheme in SCHEMES.items():
            sampling = {"type": scheme, "clients_per_round": scale.clients_per_round, "seed": seed}
            for mu in (0.0, 1.0):
                yield _cell(
                    workload, scale, seed, f"mu={mu:g}, {scheme_name}",
                    optimization={"mu": mu}, cohorting={"sampling": sampling},
                    track_dissimilarity=True,
                )


class _Sizes(NamedTuple):
    """An ablation's sizes, the one set its thresholds were chosen at
    whatever the harness scale: K = 10, E = 20, SGD batches of 10, and one
    evaluation after the last round unless ``eval_every`` says otherwise."""

    eval_every: int
    epochs: int = 20
    clients_per_round: int = 10
    batch_size: int = 10


def _synthetic11(num_devices: int, seed: int, size_cap: int, rounds: int) -> Workload:
    dataset = {
        "builder": "make_synthetic", "alpha": 1.0, "beta": 1.0,
        "num_devices": num_devices, "seed": seed, "size_cap": size_cap,
    }
    return Workload("Synthetic(1,1)", dataset, _logistic(60), 0.01, rounds)


def _mu_grid(scale: ExperimentScale, seed: int) -> List[Cell]:
    """Section 5.3.2's µ grid, and µ = 0, under 90% stragglers."""
    base = _cell(
        _synthetic11(20, seed + 3, 300, 40), _Sizes(40), seed, "", "90% stragglers",
        cohorting=_stragglers(0.9, seed),
    )
    return sweep_cells(base, "trainer_config.optimization.mu", (0.0,) + MU_GRID)


def _local_epochs(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    """E ∈ {1, 5, 20} × µ ∈ {0, 1}: the drift of large E, and µ against it."""
    workload = _synthetic11(30, seed + 3, 400, 40)
    for epochs in (1, 5, 20):
        for mu in (0.0, 1.0):
            yield _cell(
                workload, _Sizes(40), seed, f"mu={mu:g}", f"E={epochs}",
                optimization={"epochs": epochs, "mu": mu},
            )


def _gamma(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    """Measured γ (Corollary 9) as E and the straggler share vary, at µ = 1."""
    workload = _synthetic11(20, seed + 3, 300, 20)
    for epochs, level in ((1, 0.0), (5, 0.0), (20, 0.0), (20, 0.9)):
        yield _cell(
            workload, _Sizes(20), seed, f"E={epochs}", f"{int(level * 100)}% stragglers",
            optimization={"epochs": epochs, "mu": 1.0},
            cohorting=_stragglers(level, seed),
            sections={"diagnostics": {"track_gamma": True}},
        )


def _partial_work(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    """Dropping vs keeping stragglers' partial work at a fixed µ."""
    workload = _synthetic11(20, seed + 2, 300, 35)
    for level in (0.5, 0.9):
        for mu in (0.0, 1.0):
            for drop in (True, False):
                yield _cell(
                    workload, _Sizes(35), seed, f"mu={mu:g}, {'drop' if drop else 'keep'}",
                    f"{int(level * 100)}% stragglers",
                    optimization={"mu": mu, "drop_stragglers": drop},
                    cohorting=_stragglers(level, seed),
                )


#: The local solvers of the solver-agnosticism ablation (Section 3.2).
SOLVERS = {
    "SGD": {"type": "SGDSolver", "learning_rate": 0.05, "batch_size": 10},
    "MomentumSGD": {
        "type": "MomentumSGDSolver", "learning_rate": 0.01, "momentum": 0.9, "batch_size": 10,
    },
    "Adam": {"type": "AdamSolver", "learning_rate": 0.005, "batch_size": 10},
    "GD": {"type": "GDSolver", "learning_rate": 0.1},
}


def _solvers(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    """One FedProx server (µ = 1, E = 5) over four local solvers, on an
    easy one-prototype FEMNIST-like federation."""
    dataset = {
        "builder": "make_femnist_like", "num_devices": 30, "total_samples": 1500,
        "dim": 64, "seed": seed, "prototypes_per_class": 1, "style_mix": 0.0,
    }
    # Every line names its solver, so the workload's learning rate is unused.
    workload = Workload("FEMNIST-like", dataset, _logistic(64), 0.0, 40)
    for name, solver in SOLVERS.items():
        yield _cell(
            workload, _Sizes(5), seed, name, solver=solver, optimization={"epochs": 5, "mu": 1.0},
        )


def _remark8(scale: ExperimentScale, seed: int) -> Iterator[Cell]:
    """Remark 8: one-step distributed SGD vs local updating, both on the
    ``identity`` codec so the ledger counts their wire bytes."""
    workload = _synthetic11(20, seed + 2, 300, 60)
    comms = {"comms": {"codec": "identity"}}
    yield _cell(
        workload, _Sizes(60), seed, "DistributedSGD",
        solver={"type": "GDSolver", "learning_rate": 0.1},
        optimization={"epochs": 1}, sections=comms,
    )
    yield _cell(
        workload, _Sizes(60), seed, "FedProx (mu=1, E=20)",
        optimization={"mu": 1.0}, sections=comms,
    )


class Figure(NamedTuple):
    """One paper figure: its ``--list`` line, its chart title, its cells."""

    summary: str
    title: str
    cells: Callable[[ExperimentScale, int], Iterator[Cell]]


FIGURES: Dict[str, Figure] = {
    "figure1": Figure(
        "Training loss under 0/50/90% stragglers, five datasets, E=20",
        "FedAvg vs FedProx under 0/50/90% stragglers with E=20",
        _straggler_grid(None),
    ),
    "figure2": Figure(
        "Statistical-heterogeneity sweep on synthetic data (+Fig 6 accuracy)",
        "Statistical heterogeneity sweep (loss, accuracy, gradient variance) "
        "on four synthetic datasets, no stragglers (Figs 2 & 6)",
        _figure2,
    ),
    "figure3": Figure(
        "Adaptive mu heuristic on Synthetic-IID and Synthetic(1,1)",
        "Adaptive mu heuristic from adversarial initialization (Figs 3 & 11)",
        _adaptive_mu(("Synthetic-IID", "Synthetic(1,1)")),
    ),
    "figure4-top": Figure(
        "FedProx vs FedDane at mu in {0,1} on synthetic datasets",
        "FedProx vs FedDane (mu in {0,1}) on synthetic datasets",
        _figure4_top,
    ),
    "figure4-bottom": Figure(
        "FedDane with increasing gradient-estimate device counts",
        "FedDane with increasing gradient-estimate device counts",
        _figure4_bottom,
    ),
    "figure5": Figure(
        "IID robustness to stragglers",
        "IID data is robust to device failure (loss & accuracy)",
        _figure5,
    ),
    "figure8": Figure(
        "Dissimilarity metric on five datasets (no stragglers)",
        "Dissimilarity metric on five federated datasets (no stragglers)",
        _figure8,
    ),
    "figure9": Figure(
        "Stragglers with E=1 (loss: Fig 9, accuracy: Fig 10)",
        "FedAvg vs FedProx under stragglers with E=1 (Figs 9-10)",
        _straggler_grid(1.0),
    ),
    "figure11": Figure(
        "Adaptive mu on all four synthetic datasets",
        "Adaptive mu heuristic from adversarial initialization (Figs 3 & 11)",
        _adaptive_mu(tuple(ADVERSARIAL_MU0)),
    ),
    "figure12": Figure(
        "Two device sampling schemes at mu in {0,1}",
        "Two device sampling schemes at mu in {0,1} (no stragglers)",
        _figure12,
    ),
    "ablation-mu-grid": Figure(
        "Ablation: mu = 0 vs the tuning grid at 90% stragglers",
        "Some mu > 0 on the grid beats mu = 0 (Section 5.3.2)",
        _mu_grid,
    ),
    "ablation-local-epochs": Figure(
        "Ablation: local epochs E x mu",
        "Large E drifts on heterogeneous data, mu counteracts it (Section 5.3.2)",
        _local_epochs,
    ),
    "ablation-gamma": Figure(
        "Ablation: measured gamma-inexactness by E and stragglers",
        "More local work gives smaller gamma, partial work larger (Corollary 9)",
        _gamma,
    ),
    "ablation-partial-work": Figure(
        "Ablation: dropping vs keeping stragglers' partial work",
        "Keeping partial work beats dropping it (Section 5.2)",
        _partial_work,
    ),
    "ablation-solvers": Figure(
        "Ablation: FedProx over SGD, momentum SGD, Adam and GD",
        "The server is solver-agnostic (Section 3.2)",
        _solvers,
    ),
    "ablation-remark8": Figure(
        "Ablation: local updating vs distributed SGD",
        "Local updating vs distributed SGD: bytes and local epochs (Remark 8)",
        _remark8,
    ),
}


def figure_cells(figure_id: str, scale: str = "smoke", seed: int = 0) -> List[Cell]:
    """Every cell of one figure at a harness scale and seed, in paper order."""
    try:
        figure = FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        ) from None
    return [{"figure": figure_id, **cell} for cell in figure.cells(get_scale(scale), seed)]


def sweep_cells(cell: Cell, key: str, grid: Sequence[float]) -> List[Cell]:
    """Appendix C.2's tuning protocol as cells: one copy of ``cell`` per
    ``grid`` value with the dotted ``key`` (e.g.
    ``"recipe.solver.learning_rate"``) set to it, labelled ``leaf=value``.

    Run them with :func:`run_cells`; :meth:`PanelResult.best` picks the
    winner (lowest final training loss).
    """
    if not grid:
        raise ValueError(f"empty {key} grid")
    *path, leaf = key.split(".")
    cells = []
    for value in grid:
        swept = copy.deepcopy(cell)
        node = swept
        for part in path:
            node = node[part]
        node[leaf] = value
        swept["label"] = f"{leaf}={value:g}"
        cells.append(swept)
    return cells


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.+=-]+", "_", text).strip("_")


def ledger_name(cell: Cell) -> str:
    """A cell's ledger file stem and run id: figure, panel, environment,
    label and seed."""
    parts = [cell["figure"], cell["panel"], cell["environment"], cell["label"]]
    return "__".join(_slug(p) for p in parts if p) + f"__seed{cell['seed']}"


def _identity(cell: Cell) -> tuple:
    return tuple(cell[k] for k in ("figure", "panel", "environment", "label", "seed"))


def run_cells(
    cells: Sequence[Cell], out: Optional[Union[str, Path]] = None
) -> FigureResult:
    """Build, run and group the cells of one figure.

    Each cell is built by :func:`~repro.telemetry.replay.rebuild_trainer`
    and run for its ``rounds``; histories are grouped into one
    :class:`PanelResult` per ``(panel, environment)`` in cell order.  With
    ``out`` every cell writes the JSONL ledger
    ``<out>/<figure>/<ledger_name(cell)>.jsonl``, whose run id is that name
    and whose path the panel's ``ledgers`` holds under the cell's label.
    Two cells that would share a ledger or a panel line raise
    ``ValueError`` before anything runs.
    """
    figures = {cell["figure"] for cell in cells}
    if len(figures) != 1:
        raise ValueError(f"run_cells takes the cells of one figure, got {sorted(figures)}")
    (figure_id,) = figures
    seen: Dict[Any, Cell] = {}
    for cell in cells:
        for key in (ledger_name(cell), (cell["panel"], cell["environment"], cell["label"])):
            if key in seen:
                raise ValueError(
                    f"cells {_identity(seen[key])} and {_identity(cell)} would share {key!r}"
                )
            seen[key] = cell

    if out is not None:
        out = Path(out) / figure_id
        out.mkdir(parents=True, exist_ok=True)
    panels: Dict[Any, PanelResult] = {}
    for cell in cells:
        name, telemetry = ledger_name(cell), None
        key = (cell["panel"], cell["environment"])
        panel = panels.setdefault(key, PanelResult(*key, {}))
        if out is not None:
            path = panel.ledgers[cell["label"]] = str(out / f"{name}.jsonl")
            telemetry = Telemetry([JSONLSink(path)], run_id=name)
        with rebuild_trainer(RunArtifact(path=name, manifest=cell), telemetry=telemetry) as trainer:
            panel.histories[cell["label"]] = trainer.run(cell["rounds"])
    figure = FIGURES.get(figure_id)
    return FigureResult(figure_id, figure.title if figure else "", list(panels.values()))


def figure7_accuracy_rows(result: FigureResult) -> List[Dict[str, object]]:
    """Figure 7's per-panel accuracies at the convergence/divergence point.

    Applies the Appendix C.3.2 protocol to each run in a Figure 1 result.
    """
    rows: List[Dict[str, object]] = []
    for panel in result.panels:
        row: Dict[str, object] = {
            "dataset": panel.dataset,
            "environment": panel.environment,
        }
        for label, history in panel.histories.items():
            # Rounds whose training loss was skipped (``train_every``) have
            # no place in the loss series, so their accuracies go too.
            evaluated = [r for r in history.records if r.train_loss is not None]
            row[label] = accuracy_at_outcome(
                [r.train_loss for r in evaluated], [r.test_accuracy for r in evaluated]
            )
        rows.append(row)
    return rows


def figure7_improvement(result: FigureResult, level: str = "90% stragglers") -> float:
    """Mean absolute accuracy improvement of FedProx(best µ) over FedAvg.

    The paper reports +22% (0.22 absolute) averaged over the five datasets
    at 90% stragglers.
    """
    improvements: List[float] = []
    for row in figure7_accuracy_rows(result):
        if row["environment"] != level:
            continue
        fedavg_acc = row.get("FedAvg")
        best_label = next(
            (k for k in row if k.startswith("FedProx (mu=") and k != "FedProx (mu=0)"),
            None,
        )
        if fedavg_acc is None or best_label is None or row[best_label] is None:
            continue
        improvements.append(float(row[best_label]) - float(fedavg_acc))
    if not improvements:
        raise ValueError(f"no comparable runs at {level!r}")
    return sum(improvements) / len(improvements)
