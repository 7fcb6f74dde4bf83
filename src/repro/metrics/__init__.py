"""Evaluation metrics and the paper's convergence/divergence criteria."""

from .. import _lazy

_lazy.attach(globals(), {
    ".convergence": (
        "classify_run",
        "accuracy_at_outcome",
        "RunOutcome",
        "CONVERGENCE_TOL",
        "DIVERGENCE_WINDOW",
        "DIVERGENCE_JUMP",
    ),
    ".evaluation": ("federated_train_loss", "federated_test_accuracy"),
})
