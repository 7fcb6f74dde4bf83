"""Result containers shared by all figure experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.history import TrainingHistory
from ..reporting.ascii_plot import ascii_chart
from ..reporting.tables import format_table


@dataclass
class PanelResult:
    """One subplot of a figure: several methods on one dataset/environment.

    Attributes
    ----------
    dataset:
        Panel name: the workload's dataset.
    environment:
        Environment descriptor, e.g. ``"90% stragglers"`` or ``"E=1"``.
    histories:
        ``method label -> TrainingHistory``.
    ledgers:
        ``method label -> JSONL ledger path``, for the lines that wrote one.
    """

    dataset: str
    environment: str
    histories: Dict[str, TrainingHistory]
    ledgers: Dict[str, str] = field(default_factory=dict)

    def best(self) -> str:
        """The label whose run ends at the lowest training loss (the tuning
        rule of Appendix C.2)."""
        return min(self.histories, key=lambda label: self.histories[label].final_train_loss())

    def loss_series(self) -> Dict[str, List[float]]:
        """Training-loss series per method."""
        return {label: h.train_losses for label, h in self.histories.items()}

    def accuracy_series(self) -> Dict[str, List[Optional[float]]]:
        """Test-accuracy series per method (None where skipped)."""
        return {
            label: [r.test_accuracy for r in h.records]
            for label, h in self.histories.items()
        }

    def dissimilarity_series(self) -> Dict[str, List[Optional[float]]]:
        """Gradient-variance series per method (None where untracked)."""
        return {
            label: [r.dissimilarity for r in h.records]
            for label, h in self.histories.items()
        }

    def title(self) -> str:
        return f"{self.dataset} [{self.environment}]" if self.environment else self.dataset


@dataclass
class FigureResult:
    """All panels of one reproduced figure.

    Attributes
    ----------
    figure_id:
        Paper identifier, e.g. ``"figure1"``.
    description:
        One-line summary of what the figure shows.
    panels:
        Subplots in paper order.
    """

    figure_id: str
    description: str
    panels: List[PanelResult] = field(default_factory=list)

    def panel(self, dataset: str, environment: str = "") -> PanelResult:
        """Find a panel by dataset (and environment when ambiguous)."""
        for p in self.panels:
            if p.dataset == dataset and (not environment or p.environment == environment):
                return p
        raise KeyError(f"no panel {dataset!r} / {environment!r} in {self.figure_id}")

    def only(self, datasets) -> "FigureResult":
        """The same figure restricted to the panels of ``datasets``."""
        return FigureResult(
            self.figure_id, self.description, [p for p in self.panels if p.dataset in datasets]
        )

    def render(self, metric: str = "loss", charts: bool = True) -> str:
        """Render every panel as an ASCII chart plus a summary table.

        Parameters
        ----------
        metric:
            ``"loss"``, ``"accuracy"`` or ``"dissimilarity"``.
        charts:
            Include ASCII charts (tables are always included).
        """
        blocks = [f"== {self.figure_id}: {self.description} =="]
        for panel in self.panels:
            if metric == "loss":
                series = panel.loss_series()
                y_label = "training loss"
            elif metric == "accuracy":
                series = {
                    k: [v for v in vs if v is not None]
                    for k, vs in panel.accuracy_series().items()
                }
                y_label = "test accuracy"
            elif metric == "dissimilarity":
                series = {
                    k: [v for v in vs if v is not None]
                    for k, vs in panel.dissimilarity_series().items()
                }
                y_label = "variance of local gradients"
            else:
                raise ValueError(f"unknown metric {metric!r}")
            series = {k: v for k, v in series.items() if v}
            if not series:
                continue
            if charts:
                blocks.append(
                    ascii_chart(series, title=panel.title(), y_label=y_label)
                )
            summary_rows = [
                {
                    "method": label,
                    "first": values[0],
                    "last": values[-1],
                    "best": min(values) if metric == "loss" else max(values),
                }
                for label, values in series.items()
            ]
            blocks.append(format_table(summary_rows, title=panel.title()))
        return "\n\n".join(blocks)
