"""Generic comparison runner shared by all figure experiments.

Every figure in the paper compares a handful of *methods* (FedAvg,
FedProx µ=0, FedProx best-µ, FedDane, ...) on one workload under one
environment (straggler level, sampling scheme).  :func:`run_methods`
executes such a comparison with the paper's fairness protocol: all methods
share the same selected devices, straggler draws and mini-batch orders
(everything is keyed off the same seed).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.adaptive_mu import AdaptiveMuController
from ..core.config import EvalConfig, TrainerConfig
from ..core.feddane import FedDaneTrainer
from ..core.sampling import SamplingScheme, UniformSamplingWeightedAverage
from ..core.server import FederatedTrainer
from ..core.history import TrainingHistory
from ..faults.models import FaultSchedule
from ..faults.policy import FaultPolicy
from ..optim.sgd import SGDSolver
from ..systems.stragglers import FractionStragglers, NoHeterogeneity, SystemsModel
from ..telemetry import JSONLSink, Telemetry
from .configs import ExperimentScale, Workload


def _method_slug(label: str) -> str:
    """Filesystem-safe method label for telemetry artifact names."""
    slug = re.sub(r"[^A-Za-z0-9.+-]+", "_", label).strip("_")
    return slug or "method"


@dataclass(frozen=True)
class MethodSpec:
    """One line in a figure: an algorithm configuration to run.

    Attributes
    ----------
    label:
        Display name (legend entry).
    mu:
        Proximal coefficient.
    drop_stragglers:
        FedAvg-style straggler dropping.
    adaptive_mu_from:
        If not ``None``, run with the adaptive-µ controller initialized at
        this value (``mu`` is then ignored).
    feddane:
        Run the FedDane gradient-correction variant.
    gradient_clients:
        FedDane's ``c`` (defaults to ``K``).
    fault_policy:
        Per-method robustness policy (see :mod:`repro.faults`); only
        consulted when the comparison injects faults (``run_methods``'s
        ``faults=`` argument).  ``None`` uses the trainer's default
        accept-partial policy.  Letting each method carry its own policy
        is how robustness comparisons work: same fault environment, same
        seed, different server-side handling.
    """

    label: str
    mu: float = 0.0
    drop_stragglers: bool = False
    adaptive_mu_from: Optional[float] = None
    feddane: bool = False
    gradient_clients: Optional[int] = None
    fault_policy: Optional[FaultPolicy] = None


#: The three methods of Figure 1 at a given best-µ.
def figure1_methods(best_mu: float) -> List[MethodSpec]:
    """FedAvg vs FedProx(µ=0) vs FedProx(best µ)."""
    return [
        MethodSpec(label="FedAvg", mu=0.0, drop_stragglers=True),
        MethodSpec(label="FedProx (mu=0)", mu=0.0),
        MethodSpec(label=f"FedProx (mu={best_mu:g})", mu=best_mu),
    ]


def build_trainer(
    spec: MethodSpec,
    workload: Workload,
    scale: ExperimentScale,
    systems: SystemsModel,
    seed: int,
    sampling_factory: Optional[Callable[..., SamplingScheme]] = None,
    track_dissimilarity: bool = False,
    epochs: Optional[float] = None,
    telemetry=None,
    faults: Optional[FaultSchedule] = None,
) -> FederatedTrainer:
    """Instantiate the trainer described by ``spec`` for one workload.

    Builds through the config-first path: the spec/workload/scale options
    are grouped into a :class:`~repro.core.config.TrainerConfig` and handed
    to :meth:`FederatedTrainer.from_config` (FedDane takes its extra
    ``gradient_clients`` argument beside the same keywords).
    """
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


def run_methods(
    workload: Workload,
    scale: ExperimentScale,
    methods: Sequence[MethodSpec],
    straggler_fraction: float = 0.0,
    seed: int = 0,
    rounds: Optional[int] = None,
    sampling_factory: Optional[Callable[..., SamplingScheme]] = None,
    track_dissimilarity: bool = False,
    epochs: Optional[float] = None,
    telemetry_dir: Optional[str] = None,
    faults: Optional[FaultSchedule] = None,
) -> Dict[str, TrainingHistory]:
    """Run each method on a workload under a shared environment.

    Parameters
    ----------
    workload, scale:
        What to train and at what size.
    methods:
        The algorithm configurations to compare.
    straggler_fraction:
        Fraction of selected devices per round that are stragglers (0.0
        disables systems heterogeneity).
    seed:
        Shared seed — device selection, stragglers and batch orders are
        identical for every method, per the paper's protocol.
    rounds:
        Override the workload's round budget.
    sampling_factory:
        Sampling-scheme constructor (Figure 12 swaps this).
    track_dissimilarity:
        Record gradient variance every evaluation round.
    epochs:
        Override the global epoch target ``E`` (Figures 9/10 use E=1).
    telemetry_dir:
        When given, every method's run is instrumented and written as a
        JSONL telemetry artifact ``<telemetry_dir>/<method-slug>.jsonl``
        (manifest header plus per-round span/metric events; the directory
        is created if needed).  ``None`` (the default) disables
        instrumentation entirely.
    faults:
        Shared fault schedule (see :mod:`repro.faults`): every method faces
        the *same* deterministic fault draws, extending the paper's
        fairness protocol to failures.  Each method handles them per its
        own ``MethodSpec.fault_policy``.  ``None`` (the default) injects
        nothing and leaves histories bit-identical to a fault-free run.

    Returns
    -------
    dict
        ``label -> TrainingHistory`` in method order.
    """
    systems: SystemsModel
    if straggler_fraction > 0:
        systems = FractionStragglers(straggler_fraction, seed=seed)
    else:
        systems = NoHeterogeneity()
    num_rounds = rounds if rounds is not None else workload.rounds

    if telemetry_dir is not None:
        os.makedirs(telemetry_dir, exist_ok=True)

    results: Dict[str, TrainingHistory] = {}
    for spec in methods:
        telemetry = None
        if telemetry_dir is not None:
            slug = _method_slug(spec.label)
            path = os.path.join(telemetry_dir, f"{slug}.jsonl")
            # Stable run_id (method slug, not a UUID): re-running the
            # experiment overwrites the artifact with an identically
            # identified run, so ledger diffs/replays line up by name.
            telemetry = Telemetry([JSONLSink(path)], run_id=slug)
        trainer = build_trainer(
            spec,
            workload,
            scale,
            systems=systems,
            seed=seed,
            sampling_factory=sampling_factory,
            track_dissimilarity=track_dissimilarity,
            epochs=epochs,
            telemetry=telemetry,
            faults=faults,
        )
        try:
            results[spec.label] = trainer.run(num_rounds)
        finally:
            trainer.close()
    return results
