"""The paper's convergence/divergence criteria (Appendix C.3.2)."""

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
})
