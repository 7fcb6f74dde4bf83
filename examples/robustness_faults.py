"""Fault injection and robustness policies (repro.faults).

Extends the paper's partial-work argument (§5.2) from *known* smaller
budgets to *unexpected* failures: devices crash mid-solve at a given rate,
and the server's fault policy decides what happens to the recovered
partial work.  FedProx's accept-partial semantics (γ-inexact aggregation,
Definition 2) keep every crashed device's truncated solve; FedAvg's drop
semantics discard it — so at high crash rates FedAvg aggregates a thin,
shrinking cohort while FedProx keeps the full selection contributing.

Every fault draw is a pure function of ``(seed, round, client, attempt)``,
so both methods face *identical* crashes (the paper's fairness protocol,
extended to failures) and reruns reproduce exactly — on any executor.

Also demonstrated: chaos mode (all fault kinds at once) with NaN
quarantine and the minimum-quorum guard, plus the per-run fault counters.
Every run is a figure cell (``repro.experiments.figure_cells``) whose
``cohorting.faults`` / ``fault_policy`` fields describe the schedule and
the server's handling.

Run:  python examples/robustness_faults.py
"""

import copy

from repro.experiments import figure_cells, run_cells
from repro.reporting import format_table, sparkline

ROUNDS = 40
SEED = 1
BEST_MU = 1.0  # the paper's best µ for synthetic(1,1)

#: Figure 1's Synthetic(1,1) cell without stragglers, at smoke scale: the
#: federation, model and solver every run below shares.
BASE = next(
    cell for cell in figure_cells("figure1", "smoke", seed=SEED)
    if cell["panel"] == "Synthetic(1,1)" and cell["environment"] == "0% stragglers"
)


def cell(label, environment, faults, policy, mu=BEST_MU, drop_stragglers=False):
    """``BASE`` with its method, fault schedule and fault policy replaced."""
    variant = copy.deepcopy(BASE)
    variant.update(figure="robustness", environment=environment, label=label, rounds=ROUNDS)
    config = variant["trainer_config"]
    config["optimization"].update(mu=mu, drop_stragglers=drop_stragglers)
    config["cohorting"].update(faults=faults, fault_policy=policy)
    return variant


def crash_rate_sweep() -> None:
    """Part 1: accept-partial vs drop under rising crash rates."""
    methods = [
        ("FedAvg (drop)", {"on_crash": "drop"}, dict(mu=0.0, drop_stragglers=True)),
        ("FedProx (accept partial)", {"on_crash": "accept_partial"}, {}),
        ("FedProx (retry x2)", {"on_crash": "retry", "max_retries": 2}, {}),
    ]
    cells = []
    for rate in (0.0, 0.5, 0.9):
        faults = {"type": "CrashFaults", "rate": rate, "seed": SEED} if rate else None
        for label, policy, method in methods:
            policy = {"type": "FaultPolicy", **policy}
            cells.append(cell(label, f"{int(rate * 100)}%", faults, policy, **method))
    rows = [
        {
            "crash rate": panel.environment,
            "method": label,
            "loss": sparkline(history.train_losses, width=20),
            "final acc": round(history.final_test_accuracy(), 4),
        }
        for panel in run_cells(cells).panels
        for label, history in panel.histories.items()
    ]
    print(format_table(rows, title="Crash-rate sweep (identical fault draws)"))


def chaos_quarantine_demo() -> None:
    """Part 2: chaos mode — every fault kind, quarantine, quorum guard."""
    hardened = cell(
        "FedProx (hardened)",
        "chaos",
        {"type": "ChaosFaults", "rate": 0.4, "seed": SEED},
        {
            "type": "FaultPolicy",
            "on_crash": "retry",
            "max_retries": 1,
            "quarantine_threshold": 2,
            "min_quorum": 0.3,
        },
    )
    history = run_cells([hardened]).panels[0].histories["FedProx (hardened)"]
    degraded = [r.round_idx for r in history.records if r.degraded]
    print(f"\nChaos mode (rate=40%, all fault kinds), {ROUNDS} rounds:")
    print(f"  loss      {sparkline(history.train_losses, width=32)}")
    print(f"  final acc {history.final_test_accuracy():.4f}")
    print(f"  degraded (quorum-skipped) rounds: {degraded or 'none'}")


def main() -> None:
    crash_rate_sweep()
    chaos_quarantine_demo()
    print(
        "\nDeterminism: rerun this script — every number above is "
        "reproduced exactly, and every executor faces the same fault "
        "draws (tests/test_faults_parity.py pins this)."
    )


if __name__ == "__main__":
    main()
