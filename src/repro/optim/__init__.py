"""Local solvers, local-subproblem objectives, and batch scheduling."""

from .adam import AdamSolver
from .base import BatchSchedule, LocalSolver, MiniBatchSolver
from .inexactness import gamma_inexactness, is_gamma_inexact
from .proximal import LocalObjective
from .sgd import GDSolver, MomentumSGDSolver, SGDSolver

__all__ = [
    "LocalSolver",
    "MiniBatchSolver",
    "LocalObjective",
    "BatchSchedule",
    "SGDSolver",
    "MomentumSGDSolver",
    "GDSolver",
    "AdamSolver",
    "gamma_inexactness",
    "is_gamma_inexact",
]
