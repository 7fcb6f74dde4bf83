"""The trainer's evaluation options: :class:`EvalConfig`.

:class:`~repro.core.server.FederatedTrainer` takes them as one
``evaluation=`` value; a run manifest states them as the ``evaluation``
section of its ``trainer_config``
(:func:`repro.telemetry.replay.describe_trainer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EvalConfig:
    """When and how the global model is evaluated.

    ``strategy`` selects the evaluation strategy: ``"full"`` (exhaustive,
    the historical behavior) or ``"sampled"`` (size-stratified subsample
    with confidence intervals — see :mod:`repro.runtime.sampled`); the
    ``sample_size`` / ``strata`` / ``full_every`` knobs apply only to the
    sampled strategy.  ``train_every`` skips the per-round training-loss
    evaluation on intermediate rounds (records hold ``None`` there) —
    independent of ``every``, which gates the test/dissimilarity
    evaluation.  ``mode`` picks the full-census evaluation kernel
    (``"auto"`` / ``"stacked"`` / ``"per_client"``, see
    :mod:`repro.runtime.evaluation`); a sampled accuracy estimate stacks
    only its own sample's rows whatever the mode, with identical values.
    """

    every: int = 1
    test: bool = True
    mode: str = "auto"
    strategy: str = "full"
    sample_size: int = 100
    strata: int = 10
    full_every: int = 0
    train_every: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in ("full", "sampled"):
            raise ValueError(
                f"eval strategy must be 'full' or 'sampled', got "
                f"{self.strategy!r}"
            )
        if self.every < 1:
            raise ValueError("eval every must be at least 1")
        if self.train_every < 1:
            raise ValueError("eval train_every must be at least 1")

    @classmethod
    def resolve(cls, evaluation: Optional["EvalConfig"]) -> "EvalConfig":
        """``None`` → the defaults; any other non-:class:`EvalConfig` is refused."""
        if evaluation is None:
            return cls()
        if not isinstance(evaluation, cls):
            raise TypeError(
                f"evaluation must be an EvalConfig, got {type(evaluation).__name__}"
            )
        return evaluation
