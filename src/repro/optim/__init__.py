"""Local solvers, local-subproblem objectives, and batch scheduling."""

from .. import _lazy

_lazy.attach(globals(), {
    ".base": ("LocalSolver", "MiniBatchSolver", "BatchSchedule"),
    ".proximal": ("LocalObjective",),
    ".sgd": ("SGDSolver", "MomentumSGDSolver", "GDSolver"),
    ".adam": ("AdamSolver",),
    ".inexactness": ("gamma_inexactness",),
})
