"""Theory-guided tuning and systems diagnostics.

Shows the parts of the reproduction beyond the training loop:

1. measure the Section-4 constants (B, sigma^2, L) on a live federation
   and let Theorem 4 suggest a proximal coefficient mu;
2. read one clock-driven FedProx round's ledger to see *why* each device
   straggled (compute-bound vs network-bound);
3. record a run's ledger, replay it from the file, and read its history
   back exactly.

Run:  python examples/theory_and_diagnostics.py
"""

import os
import tempfile
from collections import Counter

import numpy as np

from repro.core import EvalConfig, FederatedTrainer
from repro.datasets import make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.reporting import format_table
from repro.systems import ClockDrivenSystems, sample_fleet
from repro.telemetry import (
    InMemorySink,
    JSONLSink,
    Telemetry,
    canonical_record,
    load_run,
    replay_run,
)
from repro.theory import (
    estimate_constants,
    minimum_mu_for_positive_rho,
    remark5_conditions,
)

SEED = 5


def theory_guided_mu(dataset) -> None:
    rng = np.random.default_rng(SEED)
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    trainer = FederatedTrainer(
        dataset, model, SGDSolver(0.01, batch_size=10), seed=SEED,
        evaluation=EvalConfig(every=100),
    )
    trainer.run(5)  # measure at a non-trivial point

    constants = estimate_constants(trainer.clients, trainer.w, rng, num_pairs=5)
    gamma = 0.01
    k_needed = int(
        np.ceil(8 * constants.B**2 * (1 + gamma) ** 2 / (1 - gamma * constants.B) ** 2)
    )
    check = remark5_conditions(gamma=gamma, B=constants.B, K=k_needed)
    mu = minimum_mu_for_positive_rho(
        K=k_needed, gamma=gamma, B=constants.B, L=max(constants.L, 1e-3)
    )
    print(
        format_table(
            [
                {
                    "B(w)": constants.B,
                    "sigma^2": constants.gradient_variance,
                    "L (est.)": constants.L,
                    "Remark-5 ok": check.satisfied,
                    "K needed": k_needed,
                    "theory mu": mu,
                }
            ],
            title="Measured constants -> Theorem 4's suggested mu",
        )
    )


def round_diagnostics(dataset) -> None:
    rng = np.random.default_rng(SEED)
    fleet = sample_fleet(dataset.num_devices, rng)
    systems = ClockDrivenSystems(fleet, deadline=8.0, seed=SEED)
    # Under a clock-driven systems model every solve:client span states that
    # device's download / compute / upload cycles and its bottleneck.
    sink = InMemorySink()
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    with FederatedTrainer(
        dataset, model, SGDSolver(0.01, batch_size=10), mu=1.0, systems=systems, seed=SEED,
        evaluation=EvalConfig(every=100), telemetry=Telemetry([sink]),
    ) as trainer:
        record = trainer.run_round()
    rows = []
    for span in sink.spans("solve:client"):
        straggled = span["client_id"] in record.stragglers
        rows.append(
            {
                "device": span["client_id"],
                "download": span["download_cycles"],
                "compute": span["compute_cycles"],
                "upload": span["upload_cycles"],
                "epochs done": span["epochs"],
                "straggled": straggled,
                "bottleneck": span["bottleneck"] if straggled else "",
            }
        )
    print()
    print(format_table(rows, title=f"Round timeline (deadline={systems.deadline} cycles)"))
    counts = Counter(row["bottleneck"] for row in rows if row["straggled"])
    print(f"straggler bottlenecks: {dict(counts)}")


def ledger_roundtrip(dataset) -> None:
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = os.path.join(tmp_dir, "run.jsonl")
        with FederatedTrainer(
            dataset, model, SGDSolver(0.01, batch_size=10), mu=1.0, seed=SEED,
            evaluation=EvalConfig(every=100),
            telemetry=Telemetry([JSONLSink(path)]),
        ) as trainer:
            history = trainer.run(5)
        report = replay_run(path)
        restored = load_run(path).history_records()
    print()
    print(
        format_table(
            [
                {
                    "ledger rounds": len(restored),
                    "ledger final loss": restored[-1]["train_loss"],
                    "replay": "MATCH" if report.matches else "MISMATCH",
                    "history read back exactly": (
                        restored == [canonical_record(r) for r in history.records]
                    ),
                }
            ],
            title="Run ledger round-trip (record, replay, read back)",
        )
    )


def main() -> None:
    dataset = make_synthetic(1.0, 1.0, num_devices=15, seed=SEED, size_cap=200)
    theory_guided_mu(dataset)
    round_diagnostics(dataset)
    ledger_roundtrip(dataset)


if __name__ == "__main__":
    main()
