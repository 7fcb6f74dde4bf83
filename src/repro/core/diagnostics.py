"""Per-round FedProx diagnostics: what a finished round says about itself.

Purely observational — reads the round's updates, computes drift/proximal
statistics, and emits them.  The trainer calls it only when telemetry is
enabled, so the disabled path never pays for the norm computations.  What
the round record already states (losses, accuracy, µ, the sample size and
CI of a sampled evaluation, the dissimilarity, who straggled or was
dropped) is not restated here: the ledger's ``round_record`` is its one
home.  Under a :class:`~repro.systems.clock.ClockDrivenSystems` model each
``solve:client`` span also states what that solve cost in simulated cycles.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..runtime.executor import task_round
from ..systems.clock import ClockDrivenSystems
from ..systems.stragglers import SystemsModel
from ..telemetry import peak_rss_bytes
from .client import ClientUpdate
from .dissimilarity import DissimilarityReport


def emit_round_diagnostics(
    telemetry,
    round_idx: int,
    updates: List[ClientUpdate],
    epochs: float,
    dissimilarity: Optional[DissimilarityReport] = None,
    systems: Optional[SystemsModel] = None,
) -> None:
    """Emit the round's per-client solve spans and diagnostic metrics.

    ``epochs`` is the global target ``E``; ``dissimilarity`` this round's
    measurement, when one was taken.  Each ``solve:client`` span states
    the solve's mini-batch ``steps``.  When ``systems`` is clock-driven,
    each ``solve:client`` span carries ``download_cycles``,
    ``compute_cycles``, ``upload_cycles`` and ``bottleneck`` from the
    model's :meth:`~repro.systems.clock.ClockDrivenSystems.timing` of that
    solve, at its task's round and the epochs it ran.
    """
    clock = systems if isinstance(systems, ClockDrivenSystems) else None
    for update in updates:
        if update.timings is not None:
            attrs = {k: v for k, v in update.timings.items() if k != "solve"}
            if clock is not None:
                timing = clock.timing(
                    task_round(update.task), update.client_id, update.epochs
                )
                attrs.update(
                    download_cycles=timing.download,
                    compute_cycles=timing.compute,
                    upload_cycles=timing.upload,
                    bottleneck=clock.bottleneck(timing),
                )
            telemetry.record_span(
                "solve:client",
                update.timings.get("solve", 0.0),
                round_idx=round_idx,
                client_id=update.client_id,
                epochs=update.epochs,
                steps=update.gradient_evaluations,
                **attrs,
            )

    if updates:
        # Client drift ||w_k - w_t|| and the proximal-term magnitude
        # (mu/2)||w_k - w_t||^2 actually paid by each local subproblem —
        # against the model and µ of the task it answers, which for a late
        # delivery are an earlier round's.
        drifts = [float(np.linalg.norm(u.w - u.task.w_global)) for u in updates]
        telemetry.histogram("fedprox.client_drift", drifts, round_idx=round_idx)
        telemetry.histogram(
            "fedprox.prox_term",
            [0.5 * u.task.mu * d * d for u, d in zip(updates, drifts)],
            round_idx=round_idx,
        )
        # Straggler budget utilization: fraction of the global epoch
        # target E actually completed by the accepted updates.
        telemetry.metric(
            "fedprox.budget_utilization",
            sum(u.epochs for u in updates) / (len(updates) * epochs),
            round_idx=round_idx,
        )
        gammas = [
            u.gamma
            for u in updates
            if u.gamma is not None and np.isfinite(u.gamma)
        ]
        if gammas:
            telemetry.histogram("fedprox.gamma", gammas, round_idx=round_idx)

    peak_rss = peak_rss_bytes()
    if peak_rss is not None:
        telemetry.metric("process.peak_rss_bytes", peak_rss, round_idx=round_idx)
    if dissimilarity is not None and np.isfinite(dissimilarity.b_value):
        telemetry.metric(
            "fedprox.b_value", dissimilarity.b_value, round_idx=round_idx
        )
