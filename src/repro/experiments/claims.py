"""The paper's checks as named claims over experiment cells.

A claim names the cells it reads — an experiment id of
:data:`~repro.experiments.figures.FIGURES` (or ``table1``), a panel subset
and a seed offset — and a predicate over their histories that returns
whether it held and what it compared.  :func:`run_claims` runs each
``(experiment, seed)`` once for every claim reading it (Figure 7 reads
Figure 1's seed-0 runs), writing every cell's ledger under ``out`` or a
temporary directory; the Remark 8 claim reads its bytes and local epochs
from those ledgers.  A claim that fails is a finding, not a threshold to
move.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..reporting.tables import format_table
from ..telemetry import load_run
from ..telemetry.analysis import comms_totals, solve_totals
from .configs import get_scale
from .figures import figure7_accuracy_rows, figure7_improvement, figure_cells, run_cells
from .results import FigureResult, PanelResult
from .table1 import run_table1

#: What a predicate returns: whether the claim held, and what it compared.
Verdict = Tuple[bool, Dict[str, float]]

CONVEX = ("Synthetic(1,1)", "MNIST-like", "FEMNIST-like")
SYNTHETIC = ("Synthetic-IID", "Synthetic(0,0)", "Synthetic(0.5,0.5)", "Synthetic(1,1)")
MU0 = "FedAvg (FedProx, mu=0)"

#: A claim held over panels whose train loss all fell by less than this
#: fraction (or rose), first evaluated round to last, compared runs that
#: did not learn; its row says so.  Report only: the verdict is unchanged.
NO_LEARNING = 0.01


class Claim(NamedTuple):
    """``judge(result, scale)`` over one experiment's ``panels`` (all if
    None) at base seed + ``seed``; ``table1``'s result is Table 1's rows."""

    figure: str
    judge: Callable[..., Verdict]
    seed: int = 0
    panels: Optional[Tuple[str, ...]] = None


def _final(panel: PanelResult, label: str) -> float:
    return panel.histories[label].final_train_loss()


def _best_mu_label(labels: Iterable[str]) -> str:
    return next(l for l in labels if l.startswith("FedProx (mu=") and l != "FedProx (mu=0)")


def _histories(result: FigureResult):
    return [h for p in result.panels for h in p.histories.values()]


def _finite(result: FigureResult, bound: float = np.inf) -> bool:
    return all(l == l and l < bound for h in _histories(result) for l in h.train_losses)


def _accuracies_valid(result: FigureResult) -> bool:
    finals = [h.final_test_accuracy() for h in _histories(result)]
    return all(a is not None and 0.0 <= a <= 1.0 for a in finals)


def _loss_drop(panel: PanelResult) -> float:
    return max(
        1.0 - h.final_train_loss() / h.train_losses[0]
        for h in panel.histories.values()
    )


def loss_drops(result: FigureResult) -> Dict[str, float]:
    """Each panel's train-loss drop from its first evaluated round: the
    largest relative drop among its lines."""
    return {
        f"{panel.dataset} {panel.environment}".strip(): _loss_drop(panel)
        for panel in result.panels
        if panel.histories
    }


def no_learning(result: FigureResult) -> List[str]:
    """The datasets whose every compared panel's loss drop is under
    :data:`NO_LEARNING`, in panel order."""
    drops: Dict[str, List[float]] = {}
    for panel in result.panels:
        if panel.histories:
            drops.setdefault(panel.dataset, []).append(_loss_drop(panel))
    return [name for name, ds in drops.items() if max(ds) < NO_LEARNING]


def _rises(losses: List[float]) -> int:
    return int((np.diff(losses) > 0).sum())


def _dynamic(panel: PanelResult):
    return next(h for l, h in panel.histories.items() if "dynamic" in l)


def _table1(rows, scale) -> Verdict:
    by_name = {r["Dataset"]: r for r in rows}
    mnist, sent = by_name["MNIST-like"], by_name["Sent140-like"]
    stdev, mean = "Samples/device stdev", "Samples/device mean"
    held = (
        len(rows) == 4
        and (mnist["Devices"], mnist["Samples"]) == (scale.image_devices, scale.image_samples)
        and by_name["FEMNIST-like"]["Devices"] == scale.femnist_devices
        and mnist[stdev] > mnist[mean] * 0.8
        and sent[stdev] < sent[mean]
    )
    return held, {"MNIST stdev": mnist[stdev], "MNIST mean": mnist[mean],
                  "Sent140 stdev": sent[stdev], "Sent140 mean": sent[mean]}


def _figure1(result: FigureResult, _) -> Verdict:
    """Stragglers hurt FedAvg; keeping partial work, and µ > 0, do not."""
    held, q = [len(result.panels) == 5 * 3], {}
    for dataset in CONVEX:
        clean = result.panel(dataset, "0% stragglers")
        stressed = result.panel(dataset, "90% stragglers")
        fedavg, fedavg_90 = _final(clean, "FedAvg"), _final(stressed, "FedAvg")
        prox0 = _final(stressed, "FedProx (mu=0)")
        best = _final(stressed, _best_mu_label(stressed.histories))
        held += [fedavg_90 >= fedavg * 0.9, prox0 <= fedavg_90 * 1.05, best <= fedavg_90 * 1.05]
        q.update({f"{dataset} FedAvg@0%": fedavg, f"{dataset} FedAvg@90%": fedavg_90,
                  f"{dataset} mu=0@90%": prox0, f"{dataset} best mu@90%": best})
    sequence = [p.dataset for p in result.panels if p.dataset not in CONVEX]
    return all(held) and _finite(result.only(sequence), 1e6), q


def _figure2(result: FigureResult, _) -> Verdict:
    """Dissimilarity grows with heterogeneity; µ = 1 keeps it in check."""
    levels = [float(np.mean(p.histories[MU0].dissimilarities)) for p in result.panels]
    het = result.panel("Synthetic(1,1)")
    mu1_label = next(l for l in het.histories if "mu=1" in l)
    mu1 = float(np.mean(het.histories[mu1_label].dissimilarities))
    held = (
        tuple(p.dataset for p in result.panels) == SYNTHETIC
        and levels[0] < levels[-1]
        and levels[1] < levels[-1] * 1.5
        and mu1 <= np.mean(het.histories[MU0].dissimilarities) * 1.25
        and _finite(result)
    )
    q = {f"{p.dataset} mu=0 dissimilarity": v for p, v in zip(result.panels, levels)}
    return held, {**q, "Synthetic(1,1) mu=1 dissimilarity": mu1}


def _adaptive_mu(result: FigureResult) -> Tuple[List[bool], Dict[str, float]]:
    """Figures 3/11: dynamic µ from an adversarial start ends within 1.6x
    of the best fixed µ on every panel."""
    held, q = [], {}
    for panel in result.panels:
        dynamic = _dynamic(panel).final_train_loss()
        fixed = min(h.final_train_loss() for l, h in panel.histories.items() if "dynamic" not in l)
        held.append(dynamic <= fixed * 1.6)
        q[f"{panel.dataset} dynamic"], q[f"{panel.dataset} best fixed"] = dynamic, fixed
    return held, q


def _figure3(result: FigureResult, _) -> Verdict:
    """Figure 3, and on IID data the controller does not grow µ from 1."""
    held, q = _adaptive_mu(result)
    mus = _dynamic(result.panel("Synthetic-IID")).mus
    order = tuple(p.dataset for p in result.panels) == ("Synthetic-IID", "Synthetic(1,1)")
    return all(held) and order and mus[-1] <= mus[0] + 0.2, {
        **q, "IID first mu": mus[0], "IID last mu": mus[-1]}


def _figure11(result: FigureResult, _) -> Verdict:
    """Figure 11, with a finite loss and a non-negative µ every round."""
    held, q = _adaptive_mu(result)
    for dynamic in map(_dynamic, result.panels):
        held += [all(np.isfinite(dynamic.train_losses)),
                 len(dynamic.mus) == len(dynamic) and all(m >= 0 for m in dynamic.mus)]
    return all(held) and len(result.panels) == 4, q


def _figure4_top(result: FigureResult, _) -> Verdict:
    """FedDane's gap to FedProx is larger on non-IID data than on IID."""
    iid, het = (
        _final(panel, "mu=0, FedDane") - _final(panel, "mu=0, FedProx")
        for panel in (result.panel("Synthetic-IID"), result.panel("Synthetic(1,1)"))
    )
    return het > iid - 0.3 and _finite(result, 1e6), {"IID gap": iid, "Synthetic(1,1) gap": het}


def _figure4_bottom(result: FigureResult, _) -> Verdict:
    """A subsampled gradient estimate (c < N) does not rescue FedDane."""
    het = result.panel("Synthetic(1,1)")
    n_devices = max(int(l.split("c=")[1].split(",")[0]) for l in het.histories if "c=" in l)
    prox = _final(het, "mu=0, FedProx")
    subsampled = min(
        (h.final_train_loss() for l, h in het.histories.items()
         if "FedDane" in l and f"c={n_devices}," not in l),
        default=np.nan,
    )
    return subsampled >= prox * 0.8, {"FedProx": prox, "best subsampled FedDane": subsampled}


def _figure5(result: FigureResult, _) -> Verdict:
    """IID data is robust to dropped devices."""
    finals = [h.final_train_loss() for h in _histories(result)]
    p90 = result.panel("Synthetic-IID", "90% stragglers")
    fedavg, prox0 = _final(p90, "FedAvg"), _final(p90, "FedProx (mu=0)")
    held = (
        [p.environment for p in result.panels]
        == ["0% stragglers", "10% stragglers", "50% stragglers", "90% stragglers"]
        and max(finals) <= min(finals) * 1.6
        and abs(fedavg - prox0) <= 0.5 * max(fedavg, prox0)
    )
    return held, {"max final": max(finals), "min final": min(finals),
                  "FedAvg@90%": fedavg, "mu=0@90%": prox0}


def _figure6(result: FigureResult, _) -> Verdict:
    """Accuracy is learnable on IID data and tracks the training loss."""
    held, q = [_accuracies_valid(result)], {}
    for panel in result.panels:
        pair = sorted(list(panel.histories.values())[:2], key=lambda h: h.final_train_loss())
        better, worse = (h.final_test_accuracy() for h in pair)
        held.append(better >= worse - 0.15)
        q[f"{panel.dataset} lower-loss acc"], q[f"{panel.dataset} other acc"] = better, worse
    iid = result.panel("Synthetic-IID").histories.values()
    held += [h.final_test_accuracy() > 0.3 for h in iid]
    return all(held), q


def _figure7(result: FigureResult, _) -> Verdict:
    """FedProx (best µ) beats FedAvg's accuracy at 90% stragglers."""
    improvement = figure7_improvement(result, level="90% stragglers")
    held, q = [improvement > 0.0], {"mean improvement": improvement}
    for row in figure7_accuracy_rows(result):
        if row["environment"] == "90% stragglers":
            best, fedavg = row[_best_mu_label(row)], row["FedAvg"]
            held.append(best >= fedavg - 0.05)
            q[f"{row['dataset']} best mu acc"], q[f"{row['dataset']} FedAvg acc"] = best, fedavg
    return all(held), q


def _figure8(result: FigureResult, _) -> Verdict:
    """Dissimilarity is finite, falls over training, and µ > 0 keeps it low."""
    held, q = [], {}
    for panel in result.panels:
        for label, history in panel.histories.items():
            series = history.dissimilarities or [np.nan]
            held += [all(np.isfinite(v) and v >= 0 for v in series), series[-1] <= series[0] * 1.1]
            q[f"{panel.dataset} {label} last/first"] = series[-1] / series[0]
    het = result.panel("Synthetic(1,1)")
    mu0, best = (float(np.mean(het.histories[l].dissimilarities)) for l in het.histories)
    held.append(best <= mu0 * 1.25)
    return all(held), {**q, "Synthetic(1,1) mu=0 mean": mu0, "Synthetic(1,1) best mu mean": best}


def _straggler_wins(
    result: FigureResult, value: Callable, lower: bool, band: float, win: float
) -> Verdict:
    """Figures 9/10: at 90% stragglers FedProx (µ = 0)'s ``value`` is
    within ``band`` x FedAvg's on every convex dataset and within ``win`` x
    on at least one (``lower``: a smaller value is better)."""
    def within(prox0: float, fedavg: float, factor: float) -> bool:
        return prox0 <= fedavg * factor if lower else prox0 >= fedavg * factor

    held, q, wins = [], {}, 0
    for dataset in CONVEX:
        stressed = result.panel(dataset, "90% stragglers").histories
        fedavg, prox0 = value(stressed["FedAvg"]), value(stressed["FedProx (mu=0)"])
        held.append(within(prox0, fedavg, band))
        wins += within(prox0, fedavg, win)
        q[f"{dataset} FedAvg"], q[f"{dataset} mu=0"] = fedavg, prox0
    return all(held) and wins >= 1, {**q, "wins": wins}


def _figure9(result: FigureResult, _) -> Verdict:
    held, q = _straggler_wins(result, lambda h: h.final_train_loss(), True, 1.35, 1.02)
    return held and _finite(result, 1e6), q


def _figure10(result: FigureResult, _) -> Verdict:
    held, q = _straggler_wins(result, lambda h: h.best_test_accuracy(), False, 0.55, 1.0)
    return held and _accuracies_valid(result), q


def _figure12(result: FigureResult, _) -> Verdict:
    """µ = 1 is at least as stable under both sampling schemes, which land
    in one loss band."""
    schemes = ("uniform sampling+weighted average", "weighted sampling+simple average")
    het = result.panel("Synthetic(1,1)").histories
    rises = {
        f"mu={mu}, {s}": _rises(het[f"mu={mu}, {s}"].train_losses)
        for s in schemes for mu in (0, 1)
    }
    finals = [het[f"mu=1, {s}"].final_train_loss() for s in schemes]
    held = (
        all(len(p.histories) == 4 for p in result.panels)
        and _finite(result)
        and all(rises[f"mu=1, {s}"] <= rises[f"mu=0, {s}"] + 2 for s in schemes)
        and max(finals) <= min(finals) * 2.5
    )
    return held, {**{f"rises {k}": v for k, v in rises.items()},
                  "mu=1 max/min final": max(finals) / min(finals)}


def _mu_grid(result: FigureResult, _) -> Verdict:
    """Some µ > 0 on the grid ends within 5% of µ = 0, or below it."""
    (panel,) = result.panels
    finals = {label: _final(panel, label) for label in panel.histories}
    mu0 = finals.pop("mu=0")
    held = min(finals.values()) <= mu0 * 1.05 and all(np.isfinite([mu0, *finals.values()]))
    return held, {"mu=0": mu0, "best mu>0": min(finals.values())}


def _local_epochs(result: FigureResult, _) -> Verdict:
    """E = 20 at µ = 0 is the least stable; µ = 1 steadies it."""
    rises = {
        f"rises {p.environment} {label}": _rises(h.train_losses)
        for p in result.panels for label, h in p.histories.items()
    }
    e20 = rises["rises E=20 mu=0"]
    held = (
        e20 >= rises["rises E=1 mu=0"]
        and rises["rises E=20 mu=1"] <= e20
        and all(np.isfinite(h.final_train_loss()) for h in _histories(result))
    )
    return held, rises


def _gamma(result: FigureResult, _) -> Verdict:
    """More local epochs, smaller mean γ; stragglers, larger."""
    means = {
        f"{label}@{p.environment.split()[0]}": float(np.mean(h.gamma_means))
        for p in result.panels for label, h in p.histories.items()
    }
    held = (
        means["E=20@0%"] < means["E=5@0%"] < means["E=1@0%"]
        and means["E=20@90%"] > means["E=20@0%"]
        and all(0.0 <= g and np.isfinite(g) for g in means.values())
    )
    return held, {f"mean gamma {k}": v for k, v in means.items()}


def _partial_work(result: FigureResult, _) -> Verdict:
    """At 90% stragglers keeping partial work is within 2% of dropping it,
    or better, at both µ."""
    held, q = [], {}
    for panel in result.panels:
        for mu in ("mu=0", "mu=1"):
            dropped, kept = _final(panel, f"{mu}, drop"), _final(panel, f"{mu}, keep")
            held.append(np.isfinite(kept))
            if panel.environment == "90% stragglers":
                held.append(kept <= dropped * 1.02)
                q[f"{mu} drop"], q[f"{mu} keep"] = dropped, kept
    return all(held), q


def _solvers(result: FigureResult, _) -> Verdict:
    """Every local solver trains: loss well below w = 0's, accuracy > 40%."""
    held, q = [], {}
    for name, history in result.panels[0].histories.items():
        loss, accuracy = history.final_train_loss(), history.final_test_accuracy()
        held.append(loss < np.log(10) * 0.7 and accuracy > 0.4)
        q[f"{name} loss"], q[f"{name} acc"] = loss, accuracy
    return all(held), q


def _remark8(result: FigureResult, _) -> Verdict:
    """Equal bytes on the wire, ≥ 10x the local epochs for FedProx, both
    converge, and neither is 3x ahead of the other (the paper's caveat)."""
    (panel,) = result.panels
    runs = {}
    for name, label in (("DSGD", "DistributedSGD"), ("FedProx", "FedProx (mu=1, E=20)")):
        history, artifact = panel.histories[label], load_run(panel.ledgers[label])
        comms = comms_totals(artifact)
        runs[name] = {
            "initial": history.train_losses[0],
            "final": history.final_train_loss(),
            "bytes": comms["bytes_up"] + comms["bytes_down"],
            "epochs": solve_totals(artifact)["epochs"],
        }
    dsgd, prox = runs["DSGD"], runs["FedProx"]
    held = (
        all(r["final"] < r["initial"] * 0.5 for r in runs.values())
        and dsgd["bytes"] == prox["bytes"]
        and prox["epochs"] >= 10 * dsgd["epochs"]
        and prox["final"] < dsgd["final"] * 3
        and dsgd["final"] < prox["final"] * 3
    )
    return held, {f"{name} {key}": v for name, run in runs.items() for key, v in run.items()}


#: Every claim, in paper order.
CLAIMS: Dict[str, Claim] = {
    "table1": Claim("table1", _table1),
    "figure1": Claim("figure1", _figure1),
    "figure2": Claim("figure2", _figure2),
    "figure3": Claim("figure3", _figure3),
    "figure4-top": Claim("figure4-top", _figure4_top),
    "figure4-bottom": Claim("figure4-bottom", _figure4_bottom),
    "figure5": Claim("figure5", _figure5),
    "figure6": Claim("figure2", _figure6, seed=1),
    "figure7": Claim("figure1", _figure7, panels=CONVEX),
    "figure8": Claim("figure8", _figure8, panels=CONVEX),
    "figure9": Claim("figure9", _figure9, panels=CONVEX),
    "figure10": Claim("figure9", _figure10, seed=1, panels=CONVEX),
    "figure11": Claim("figure11", _figure11),
    "figure12": Claim("figure12", _figure12),
    "ablation-mu-grid": Claim("ablation-mu-grid", _mu_grid),
    "ablation-local-epochs": Claim("ablation-local-epochs", _local_epochs),
    "ablation-gamma": Claim("ablation-gamma", _gamma),
    "ablation-partial-work": Claim("ablation-partial-work", _partial_work, seed=1),
    "ablation-solvers": Claim("ablation-solvers", _solvers, seed=2),
    "ablation-remark8": Claim("ablation-remark8", _remark8),
}


def _cells(figure: str, panels, scale: str, seed: int) -> List[dict]:
    return [c for c in figure_cells(figure, scale, seed) if panels is None or c["panel"] in panels]


def claim_cells(claim: Claim, scale: str = "smoke", seed: int = 0) -> List[dict]:
    """The cells ``claim`` reads at a base ``seed``."""
    return _cells(claim.figure, claim.panels, scale, seed + claim.seed)


def run_claims(
    names: Optional[Iterable[str]] = None,
    scale: str = "smoke",
    seed: int = 0,
    out: Optional[Union[str, Path]] = None,
) -> List[Dict[str, object]]:
    """Judge the named claims (default: all), one row per claim in
    :data:`CLAIMS` order: ``claim``, ``figure``, ``seed``, ``held``, the
    compared ``quantities``, the compared panels' ``loss_drops``
    (:func:`loss_drops`) and the datasets among them that did not learn
    (:func:`no_learning`; neither for Table 1).

    The cells of each ``(experiment, seed)`` run once, for the union of
    the panels its claims read; each claim sees only its own panels.
    """
    claims = {name: CLAIMS[name] for name in (names or CLAIMS)}
    groups: Dict[Tuple[str, int], List[str]] = {}
    for name, claim in claims.items():
        groups.setdefault((claim.figure, seed + claim.seed), []).append(name)
    verdicts: Dict[str, Dict[str, object]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for (figure, claim_seed), members in groups.items():
            wanted = [claims[name].panels for name in members]
            panels = None if None in wanted else {p for ps in wanted for p in ps}
            if figure == "table1":
                evidence = run_table1(scale, claim_seed)
            else:
                evidence = run_cells(_cells(figure, panels, scale, claim_seed), out=out or scratch)
            for name in members:
                own = claims[name].panels
                compared = evidence if own is None else evidence.only(own)
                held, quantities = claims[name].judge(compared, get_scale(scale))
                table = figure == "table1"
                verdicts[name] = {"claim": name, "figure": figure, "seed": claim_seed,
                                  "held": bool(held), "quantities": quantities,
                                  "loss_drops": {} if table else loss_drops(compared),
                                  "no_learning": [] if table else no_learning(compared)}
    return [verdicts[name] for name in claims]


def _held(row: Dict[str, object]) -> str:
    if not row["held"]:
        return "NO"
    flat = row["no_learning"]
    return f"yes (no learning: {', '.join(flat)})" if flat else "yes"


def render_claims(rows: List[Dict[str, object]]) -> str:
    """One line per claim: its figure, seed, whether it held (naming each
    dataset whose compared panels' losses all moved under
    :data:`NO_LEARNING`), what it compared, and each compared panel's
    train-loss drop."""
    return format_table([
        {**{k: row[k] for k in ("claim", "figure", "seed")},
         "held": _held(row),
         "quantities": ", ".join(f"{k}={v:.4g}" for k, v in row["quantities"].items()),
         "loss drop": ", ".join(f"{k}={v:.1%}" for k, v in row["loss_drops"].items())}
        for row in rows
    ], title="Claims")
