"""Fault injection & robustness: seeded device failures + server policies.

The paper's headline robustness claim — FedProx keeps converging when 90%
of devices cannot finish their work, while FedAvg that drops them degrades
(§5.2, Figure 2) — is about *failure tolerance*, not just reduced budgets.
This subsystem simulates the failure patterns production federations
actually see and the server policies that absorb them:

* **Fault models** (:mod:`repro.faults.models`): composable, per-client
  seeded :class:`FaultSchedule` s — crash-mid-solve, round dropout, update
  corruption, stale delivery, and a chaos mode sampling from all of them.
  Draws ride the same ``(seed, round, client)`` entropy pipeline as
  straggler draws, so fault environments are identical across executors
  and run-to-run.
* **Robustness policies** (:mod:`repro.faults.policy`):
  :class:`FaultPolicy` — retry-with-backoff, accept-partial (FedProx's
  γ-inexact semantics), drop-and-reweight (FedAvg semantics), non-finite
  quarantine with suspicion counters, and a minimum aggregation quorum.
* **Orchestration** (:mod:`repro.faults.manager`): :class:`FaultManager`
  applies schedule + policy each round and emits ``fault:*`` /
  ``round:degraded`` events through the telemetry schema.

Quickstart::

    from repro.faults import CrashFaults, FaultPolicy

    trainer = FederatedTrainer(
        dataset, model, solver, mu=1.0,
        faults=CrashFaults(rate=0.9, seed=0),
        fault_policy=FaultPolicy.fedprox(min_quorum=2),
    )

The default (:data:`NO_FAULTS`) injects nothing and keeps trainer behavior
bit-identical to a fault-unaware build.
"""

from .manager import RETRY_SALT, FaultManager, FaultStats, RoundFaultReport
from .models import (
    CORRUPT_MODES,
    FAULT_KINDS,
    FAULT_SALT,
    NO_FAULTS,
    ChaosFaults,
    ComposeFaults,
    CorruptionFaults,
    CrashFaults,
    DropoutFaults,
    FaultDecision,
    FaultSchedule,
    NoFaults,
    StaleFaults,
    resolve_faults,
)
from .policy import CRASH_ACTIONS, RETRY_FALLBACKS, FaultPolicy

__all__ = [
    "FaultSchedule",
    "FaultDecision",
    "NoFaults",
    "NO_FAULTS",
    "CrashFaults",
    "DropoutFaults",
    "CorruptionFaults",
    "StaleFaults",
    "ChaosFaults",
    "ComposeFaults",
    "resolve_faults",
    "FaultPolicy",
    "FaultManager",
    "FaultStats",
    "RoundFaultReport",
    "FAULT_KINDS",
    "FAULT_SALT",
    "CORRUPT_MODES",
    "CRASH_ACTIONS",
    "RETRY_FALLBACKS",
    "RETRY_SALT",
]
