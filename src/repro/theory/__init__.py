"""Convergence-theory calculators and constant estimators (Section 4)."""

from .. import _lazy

_lazy.attach(globals(), {
    ".convergence": (
        "rho",
        "remark5_conditions",
        "Remark5Check",
        "corollary7_mu",
        "corollary7_rho",
        "theorem6_iterations",
        "minimum_mu_for_positive_rho",
    ),
    ".estimation": (
        "estimate_lipschitz",
        "logistic_lipschitz_bound",
        "estimate_constants",
        "ConstantEstimates",
    ),
})
