"""Per-round FedProx diagnostics: what a finished round says about itself.

Purely observational — reads the round's updates and record, computes
drift/proximal statistics, and flushes the metrics registry.  The trainer
calls it only when telemetry is enabled, so the disabled path never pays
for the norm computations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..telemetry import MetricsRegistry, peak_rss_bytes
from .client import ClientUpdate
from .dissimilarity import DissimilarityReport
from .history import RoundRecord


def emit_round_diagnostics(
    telemetry,
    registry: MetricsRegistry,
    record: RoundRecord,
    updates: List[ClientUpdate],
    epochs: float,
    fault_stats: Optional[Dict[str, int]] = None,
    dissimilarity: Optional[DissimilarityReport] = None,
) -> None:
    """Emit the round's per-client solve spans and diagnostic metrics.

    ``epochs`` is the global target ``E``; ``fault_stats`` the fault
    manager's cumulative counters (``None`` without fault injection);
    ``dissimilarity`` this round's measurement, when one was taken.
    """
    round_idx = record.round_idx
    for update in updates:
        if update.timings is not None:
            attrs = {k: v for k, v in update.timings.items() if k != "solve"}
            telemetry.record_span(
                "solve:client",
                update.timings.get("solve", 0.0),
                round_idx=round_idx,
                client_id=update.client_id,
                epochs=update.epochs,
                **attrs,
            )

    registry.counter("rounds_total").inc()
    registry.counter("solves_total").inc(len(updates))
    registry.counter("stragglers_total").inc(len(record.stragglers))
    registry.counter("dropped_total").inc(len(record.dropped))
    if fault_stats is not None:
        # Cumulative fault counters ride the registry as gauges: the
        # manager already emitted the per-event counters
        # (fault:injected / fault:retry / fault:quarantine /
        # round:degraded) at decision time.
        for name, value in fault_stats.items():
            registry.gauge(f"faults.{name}").set(value)

    if updates:
        # Client drift ||w_k - w_t|| and the proximal-term magnitude
        # (mu/2)||w_k - w_t||^2 actually paid by each local subproblem —
        # against the model and µ of the task it answers, which for a late
        # delivery are an earlier round's.
        drifts = [float(np.linalg.norm(u.w - u.task.w_global)) for u in updates]
        registry.histogram("fedprox.client_drift").observe_many(drifts)
        registry.histogram("fedprox.prox_term").observe_many(
            0.5 * u.task.mu * d * d for u, d in zip(updates, drifts)
        )
        # Straggler budget utilization: fraction of the global epoch
        # target E actually completed by the accepted updates.
        registry.gauge("fedprox.budget_utilization").set(
            sum(u.epochs for u in updates) / (len(updates) * epochs)
        )
        gammas = [
            u.gamma
            for u in updates
            if u.gamma is not None and np.isfinite(u.gamma)
        ]
        if gammas:
            registry.histogram("fedprox.gamma").observe_many(gammas)

    if record.train_loss is not None:
        registry.gauge("train_loss").set(record.train_loss)
    if record.test_accuracy is not None:
        registry.gauge("test_accuracy").set(record.test_accuracy)
    registry.gauge("mu").set(record.mu)
    if record.eval_sample_size is not None:
        registry.gauge("eval.sample_size").set(record.eval_sample_size)
    if record.train_loss_ci is not None:
        registry.gauge("eval.ci_halfwidth").set(record.train_loss_ci)
    peak_rss = peak_rss_bytes()
    if peak_rss is not None:
        registry.gauge("process.peak_rss_bytes").set(peak_rss)
    if dissimilarity is not None:
        registry.gauge("fedprox.gradient_variance").set(
            dissimilarity.gradient_variance
        )
        if np.isfinite(dissimilarity.b_value):
            registry.gauge("fedprox.b_value").set(dissimilarity.b_value)
    registry.emit_round(round_idx)
