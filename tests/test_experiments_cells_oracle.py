"""Figure cells against the builder they replaced, frozen as it stood.

Before figures were lists of cells, every figure run went through one
hand-wired builder: a method (label, µ, straggler dropping, adaptive-µ
start, FedDane and its ``c``) on a workload at a harness scale, under a
shared systems model and sampling scheme.  ``frozen_trainer`` is that body
with its options passed straight to the constructor, plus
``clients_per_round`` equal to the sampling scheme's K (the body left it at
the default, which the trainer then ignored); each case below names one cell of one figure id by its grouping
keys, states the frozen builder's arguments for it independently of the
cell generator, and asserts the two histories' records are ``==``.  The
ablations' trainers were built by hand in their own tests; one line of each
is held to a frozen copy of that construction the same way.
"""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.adaptive_mu import AdaptiveMuController
from repro.core.config import EvalConfig
from repro.core.feddane import FedDaneTrainer
from repro.core.sampling import (
    UniformSamplingWeightedAverage,
    WeightedSamplingSimpleAverage,
)
from repro.core.server import FederatedTrainer
from repro.experiments import SMOKE, figure_cells, run_cells
from repro.experiments.configs import (
    figure1_workloads,
    make_synthetic_iid_workload,
    synthetic_suite_workloads,
)
from repro.datasets import make_femnist_like, make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.optim.sgd import GDSolver, SGDSolver
from repro.systems.stragglers import FractionStragglers, NoHeterogeneity

pytestmark = pytest.mark.oracle


@dataclass(frozen=True)
class FrozenMethod:
    label: str
    mu: float = 0.0
    drop_stragglers: bool = False
    adaptive_mu_from: Optional[float] = None
    feddane: bool = False
    gradient_clients: Optional[int] = None
    fault_policy: object = None


def frozen_trainer(
    spec,
    workload,
    scale,
    systems,
    seed,
    sampling_factory=None,
    track_dissimilarity=False,
    epochs=None,
    telemetry=None,
    faults=None,
):
    model = workload.model_factory()
    solver = SGDSolver(workload.learning_rate, batch_size=scale.batch_size)
    sampling_factory = sampling_factory or UniformSamplingWeightedAverage
    sampling = sampling_factory(
        workload.dataset, scale.clients_per_round, seed=seed
    )
    controller = (
        AdaptiveMuController(initial_mu=spec.adaptive_mu_from)
        if spec.adaptive_mu_from is not None
        else None
    )
    options = dict(
        mu=spec.mu,
        drop_stragglers=spec.drop_stragglers,
        epochs=epochs if epochs is not None else scale.epochs,
        clients_per_round=scale.clients_per_round,
        sampling=sampling,
        systems=systems,
        faults=faults,
        fault_policy=spec.fault_policy,
        seed=seed,
        evaluation=EvalConfig(every=scale.eval_every),
        track_dissimilarity=track_dissimilarity,
        dissimilarity_max_clients=scale.dissimilarity_max_clients,
        mu_controller=controller,
        telemetry=telemetry,
        label=spec.label,
    )
    if spec.feddane:
        return FedDaneTrainer(
            workload.dataset, model, solver,
            gradient_clients=spec.gradient_clients, **options,
        )
    return FederatedTrainer(workload.dataset, model, solver, **options)


SEED = 0

#: (figure, panel, environment, method, workload source, stragglers,
#: sampling scheme, dissimilarity tracked, E override)
CASES = [
    ("figure1", "Synthetic(1,1)", "90% stragglers",
     FrozenMethod("FedAvg", drop_stragglers=True), "figure1", 0.9, None, False, None),
    ("figure2", "Synthetic(0.5,0.5)", "",
     FrozenMethod("FedProx, mu=1", mu=1.0), "suite", 0.0, None, True, None),
    ("figure3", "Synthetic-IID", "",
     FrozenMethod("FedProx, dynamic mu", adaptive_mu_from=1.0), "suite", 0.0, None, False, None),
    ("figure4-top", "Synthetic(1,1)", "",
     FrozenMethod("mu=1, FedDane", mu=1.0, feddane=True), "suite", 0.0, None, False, None),
    ("figure4-bottom", "Synthetic(0,0)", "",
     FrozenMethod("mu=0, c=10, FedDane", feddane=True, gradient_clients=10),
     "suite", 0.0, None, False, None),
    ("figure5", "Synthetic-IID", "50% stragglers",
     FrozenMethod("FedAvg", drop_stragglers=True), "iid", 0.5, None, False, None),
    ("figure8", "Shakespeare-like", "",
     FrozenMethod("FedProx (mu=0.001)", mu=0.001), "figure1", 0.0, None, True, None),
    ("figure9", "MNIST-like", "90% stragglers",
     FrozenMethod("FedProx (mu=1)", mu=1.0), "figure1", 0.9, None, False, 1.0),
    ("figure11", "Synthetic(0,0)", "",
     FrozenMethod("FedProx, dynamic mu", adaptive_mu_from=0.0), "suite", 0.0, None, False, None),
    ("figure12", "Synthetic(1,1)", "",
     FrozenMethod("mu=0, weighted sampling+simple average"),
     "suite", 0.0, WeightedSamplingSimpleAverage, True, None),
]


def _workload(source, panel):
    if source == "iid":
        return make_synthetic_iid_workload(SMOKE, seed=SEED)
    workloads = figure1_workloads if source == "figure1" else synthetic_suite_workloads
    return workloads(SMOKE, seed=SEED)[panel]


@pytest.mark.parametrize(
    "figure,panel,environment,method,source,stragglers,sampling,tracked,epochs",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_cell_equals_frozen_builder(
    figure, panel, environment, method, source, stragglers, sampling, tracked, epochs
):
    (cell,) = [
        c for c in figure_cells(figure, "smoke", seed=SEED)
        if (c["panel"], c["environment"], c["label"]) == (panel, environment, method.label)
    ]
    workload = _workload(source, panel)
    systems = (
        FractionStragglers(stragglers, seed=SEED) if stragglers > 0 else NoHeterogeneity()
    )
    with frozen_trainer(
        method, workload, SMOKE, systems, SEED,
        sampling_factory=sampling, track_dissimilarity=tracked, epochs=epochs,
    ) as trainer:
        frozen = trainer.run(workload.rounds)

    (panel_result,) = run_cells([cell]).panels
    assert panel_result.histories[method.label].records == frozen.records
    assert len(frozen) == cell["rounds"]


# The ablations' hand-built trainers, frozen as their tests built them
# before they became cells: (experiment id, seed, panel environment, label)
# -> the trainer.  Each names one line; its cell must give ``==`` records.
def _synthetic11(num_devices, seed, size_cap):
    return make_synthetic(1.0, 1.0, num_devices=num_devices, seed=seed, size_cap=size_cap)


def _logistic(dim=60):
    return MultinomialLogisticRegression(dim=dim, num_classes=10)


ABLATIONS = {
    ("ablation-mu-grid", 0, "90% stragglers", "mu=0.1"): lambda: FederatedTrainer(
        dataset=_synthetic11(20, 3, 300), model=_logistic(),
        solver=SGDSolver(0.01, batch_size=10), mu=0.1, drop_stragglers=False,
        clients_per_round=10, epochs=20, systems=FractionStragglers(0.9, seed=0), seed=0,
        evaluation=EvalConfig(every=40),
    ),
    ("ablation-local-epochs", 0, "E=5", "mu=1"): lambda: FederatedTrainer(
        dataset=_synthetic11(30, 3, 400), model=_logistic(),
        solver=SGDSolver(0.01, batch_size=10), mu=1.0, drop_stragglers=False,
        clients_per_round=10, epochs=5, seed=0, evaluation=EvalConfig(every=40),
    ),
    ("ablation-gamma", 0, "90% stragglers", "E=20"): lambda: FederatedTrainer(
        dataset=_synthetic11(20, 3, 300), model=_logistic(),
        solver=SGDSolver(0.01, batch_size=10), mu=1.0, drop_stragglers=False,
        clients_per_round=10, epochs=20, systems=FractionStragglers(0.9, seed=0), seed=0,
        evaluation=EvalConfig(every=20), track_gamma=True,
    ),
    ("ablation-partial-work", 1, "90% stragglers", "mu=1, drop"): lambda: FederatedTrainer(
        dataset=_synthetic11(20, 3, 300), model=_logistic(),
        solver=SGDSolver(0.01, batch_size=10), mu=1.0, drop_stragglers=True,
        clients_per_round=10, epochs=20, systems=FractionStragglers(0.9, seed=1), seed=1,
        evaluation=EvalConfig(every=35),
    ),
    ("ablation-solvers", 2, "", "GD"): lambda: FederatedTrainer(
        dataset=make_femnist_like(
            num_devices=30, total_samples=1500, dim=64, seed=2,
            prototypes_per_class=1, style_mix=0.0,
        ),
        model=_logistic(64), solver=GDSolver(0.1), mu=1.0, clients_per_round=10,
        epochs=5, seed=2, evaluation=EvalConfig(every=5),
    ),
    ("ablation-remark8", 0, "", "DistributedSGD"): lambda: FederatedTrainer(
        dataset=_synthetic11(20, 2, 300), model=_logistic(), solver=GDSolver(0.1),
        mu=0.0, drop_stragglers=False, clients_per_round=10, epochs=1, seed=0,
        label="DistributedSGD", evaluation=EvalConfig(every=60), comms="identity",
    ),
}


@pytest.mark.parametrize("key", list(ABLATIONS), ids=[key[0] for key in ABLATIONS])
def test_ablation_cell_equals_frozen_trainer(key):
    figure, seed, environment, label = key
    (cell,) = [
        c for c in figure_cells(figure, "smoke", seed=seed)
        if (c["environment"], c["label"]) == (environment, label)
    ]
    with ABLATIONS[key]() as trainer:
        frozen = trainer.run(cell["rounds"])
    (panel,) = run_cells([cell]).panels
    assert panel.histories[label].records == frozen.records
