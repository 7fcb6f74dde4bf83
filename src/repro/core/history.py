"""Round-by-round training records.

Every experiment in the harness reduces to one or more
:class:`TrainingHistory` objects; the figure benchmarks print and compare
their series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class RoundRecord:
    """Metrics for a single communication round.

    Attributes
    ----------
    round_idx:
        Round number (0-based; metrics are evaluated *after* aggregation).
    train_loss:
        Global objective ``f(w) = sum_k p_k F_k(w)`` on training data —
        exact under full evaluation, a stratified-sample estimate under
        sampled evaluation, or explicitly ``None`` when the round's
        training-loss evaluation was skipped (``eval_train_every`` > 1);
        skipped rounds record ``None`` rather than silently carrying the
        previous value.
    test_accuracy:
        Sample-weighted accuracy across all devices' test sets
        (``None`` if evaluation was skipped this round).
    train_loss_ci, accuracy_ci:
        95% confidence half-widths of the sampled estimates (``None``
        under full evaluation; ``0.0`` on sampled runs' full-checkpoint
        rounds).
    eval_sample_size:
        Devices evaluated this round under sampled evaluation (``None``
        under full evaluation).
    eval_full:
        ``True`` when a sampled-evaluation run took an exhaustive
        full-evaluation checkpoint this round.
    dissimilarity:
        Gradient-variance dissimilarity ``E_k ||∇F_k(w) − ∇f(w)||²``
        (``None`` unless tracking was enabled).
    mu:
        The proximal coefficient in effect this round (varies when the
        adaptive-µ controller is active).
    gamma_mean, gamma_max:
        Mean/max measured γ-inexactness over this round's accepted local
        solves (``None`` unless gamma tracking was enabled).
    selected:
        Device ids the server selected.
    stragglers:
        Selected devices that could not complete the full E epochs.
    dropped:
        Devices whose updates were discarded (FedAvg's straggler handling,
        or a fault-policy decision — offline, crash-drop, quarantine).
    degraded:
        ``True`` when the fault policy's minimum-quorum guard rejected the
        round's aggregation (too few surviving updates); the global model
        was carried over unchanged.
    """

    round_idx: int
    train_loss: Optional[float]
    test_accuracy: Optional[float] = None
    dissimilarity: Optional[float] = None
    mu: float = 0.0
    train_loss_ci: Optional[float] = None
    accuracy_ci: Optional[float] = None
    eval_sample_size: Optional[int] = None
    eval_full: bool = False
    gamma_mean: Optional[float] = None
    gamma_max: Optional[float] = None
    selected: List[int] = field(default_factory=list)
    stragglers: List[int] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)
    degraded: bool = False


class TrainingHistory:
    """Ordered collection of :class:`RoundRecord` for one training run.

    Parameters
    ----------
    label:
        Display name of the run (e.g. ``"FedProx (mu=1)"``).
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.records: List[RoundRecord] = []

    def append(self, record: RoundRecord) -> None:
        """Add the next round's record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: int) -> RoundRecord:
        return self.records[index]

    # Series accessors ---------------------------------------------------- #
    @property
    def rounds(self) -> List[int]:
        """Round indices."""
        return [r.round_idx for r in self.records]

    @property
    def train_losses(self) -> List[float]:
        """Global training-loss series (skipped rounds omitted)."""
        return [r.train_loss for r in self.records if r.train_loss is not None]

    @property
    def train_loss_cis(self) -> List[float]:
        """Sampled-evaluation loss CI half-widths (full rounds omitted)."""
        return [
            r.train_loss_ci for r in self.records if r.train_loss_ci is not None
        ]

    @property
    def test_accuracies(self) -> List[float]:
        """Test-accuracy series (skipped rounds omitted)."""
        return [r.test_accuracy for r in self.records if r.test_accuracy is not None]

    @property
    def dissimilarities(self) -> List[float]:
        """Dissimilarity series (untracked rounds omitted)."""
        return [r.dissimilarity for r in self.records if r.dissimilarity is not None]

    @property
    def mus(self) -> List[float]:
        """Per-round proximal coefficient series."""
        return [r.mu for r in self.records]

    @property
    def gamma_means(self) -> List[float]:
        """Per-round mean measured γ (untracked rounds omitted)."""
        return [r.gamma_mean for r in self.records if r.gamma_mean is not None]

    def final_train_loss(self) -> float:
        """Most recent recorded training loss.

        The last round whose training loss was actually evaluated — with
        ``eval_train_every`` > 1 intermediate rounds record ``None``, and
        the final round is always filled in by the trainer.
        """
        if not self.records:
            raise ValueError("history is empty")
        for record in reversed(self.records):
            if record.train_loss is not None:
                return record.train_loss
        raise ValueError("history has no evaluated training loss")

    def final_test_accuracy(self) -> Optional[float]:
        """Most recent recorded test accuracy."""
        for record in reversed(self.records):
            if record.test_accuracy is not None:
                return record.test_accuracy
        return None

    def best_test_accuracy(self) -> Optional[float]:
        """Highest recorded test accuracy."""
        accs = self.test_accuracies
        return max(accs) if accs else None
