"""repro — reproduction of "Federated Optimization in Heterogeneous Networks".

FedProx (Li et al., MLSys 2020) generalizes FedAvg with a proximal local
subproblem and tolerance for partial work from stragglers.  This package
implements the full system from scratch on NumPy: an autodiff engine, the
paper's models and federated datasets, a systems-heterogeneity simulator,
the FedAvg/FedProx/FedDane algorithms, and an experiment harness that
regenerates every table and figure in the paper's evaluation.

Quickstart
----------
>>> from repro.datasets import make_synthetic
>>> from repro.models import MultinomialLogisticRegression
>>> from repro.optim import SGDSolver
>>> from repro.core import FederatedTrainer
>>> data = make_synthetic(1.0, 1.0, seed=0)
>>> model = MultinomialLogisticRegression(dim=60, num_classes=10)
>>> trainer = FederatedTrainer(data, model, SGDSolver(0.01, batch_size=10), mu=1.0)
>>> history = trainer.run(num_rounds=10)
>>> history.final_train_loss()  # doctest: +SKIP
"""

__version__ = "1.0.0"
__all__ = ["__version__"]

from . import _lazy

# Each subpackage loads on first use (``repro.core``, ``from repro.core
# import ...``), so a run imports only the packages it touches.
_lazy.attach(globals(), {}, submodules=(
    "autograd",
    "nn",
    "models",
    "optim",
    "datasets",
    "systems",
    "faults",
    "comms",
    "core",
    "metrics",
    "telemetry",
    "theory",
))
