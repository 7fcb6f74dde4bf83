"""Figure cells against the builder they replaced, frozen as it stood.

Before figures were lists of cells, every figure run went through one
hand-wired builder: a method (label, µ, straggler dropping, adaptive-µ
start, FedDane and its ``c``) on a workload at a harness scale, under a
shared systems model and sampling scheme.  ``frozen_trainer`` is that body
verbatim; each case below names one cell of one figure id by its grouping
keys, states the frozen builder's arguments for it independently of the
cell generator, and asserts the two histories' records are ``==``.
"""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.core.adaptive_mu import AdaptiveMuController
from repro.core.config import EvalConfig, TrainerConfig
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
from repro.optim.sgd import SGDSolver
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
    config = TrainerConfig.from_kwargs(
        mu=spec.mu,
        drop_stragglers=spec.drop_stragglers,
        epochs=epochs if epochs is not None else scale.epochs,
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
            gradient_clients=spec.gradient_clients, **config.trainer_kwargs(),
        )
    return FederatedTrainer.from_config(workload.dataset, model, solver, config)


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
