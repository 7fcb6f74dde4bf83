"""Theory-guided tuning and systems diagnostics.

Shows the parts of the reproduction beyond the training loop:

1. measure the Section-4 constants (B, sigma^2, L) on a live federation
   and let Theorem 4 suggest a proximal coefficient mu;
2. trace one clock-driven round to see *why* each device straggled
   (compute-bound vs network-bound);
3. checkpoint a run's model and history and read them back exactly.

Run:  python examples/theory_and_diagnostics.py
"""

import numpy as np

from repro.core import Client, EvalConfig, make_fedprox
from repro.datasets import make_synthetic
from repro.io import load_checkpoint, save_checkpoint
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.reporting import format_table
from repro.systems import ClockDrivenSystems, sample_fleet, trace_round
from repro.theory import (
    estimate_constants,
    minimum_mu_for_positive_rho,
    remark5_conditions,
)

SEED = 5


def theory_guided_mu(dataset) -> None:
    rng = np.random.default_rng(SEED)
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    trainer = make_fedprox(dataset, model, 0.01, mu=0.0, seed=SEED, evaluation=EvalConfig(every=100))
    trainer.run(5)  # measure at a non-trivial point

    clients = [Client(c, model, SGDSolver(0.01)) for c in dataset]
    constants = estimate_constants(clients, trainer.w, rng, num_pairs=5)
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
    timeline = trace_round(systems, round_idx=0, client_ids=list(range(10)), max_epochs=20)
    rows = [
        {
            "device": t.device_id,
            "download": t.download_cycles,
            "compute": t.compute_cycles,
            "upload": t.upload_cycles,
            "epochs done": t.epochs_completed,
            "straggled": t.hit_deadline,
            "bottleneck": t.bottleneck if t.hit_deadline else "",
        }
        for t in timeline.traces
    ]
    print()
    print(format_table(rows, title=f"Round timeline (deadline={timeline.deadline} cycles)"))
    print(f"straggler bottlenecks: {timeline.bottleneck_counts()}")


def checkpoint_roundtrip(dataset, tmp_dir="results/example_checkpoint") -> None:
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    trainer = make_fedprox(dataset, model, 0.01, mu=1.0, seed=SEED, evaluation=EvalConfig(every=100))
    history = trainer.run(5)
    save_checkpoint(tmp_dir, model, history)

    fresh = MultinomialLogisticRegression(dim=60, num_classes=10)
    restored_history = load_checkpoint(tmp_dir, fresh)
    print()
    print(
        format_table(
            [
                {
                    "saved rounds": len(restored_history),
                    "saved final loss": restored_history.final_train_loss(),
                    "params restored exactly": bool(
                        np.array_equal(trainer.w, fresh.get_params())
                    ),
                    "history restored exactly": (
                        restored_history.records == history.records
                    ),
                }
            ],
            title=f"Checkpoint round-trip ({tmp_dir})",
        )
    )


def main() -> None:
    dataset = make_synthetic(1.0, 1.0, num_devices=15, seed=SEED, size_cap=200)
    theory_guided_mu(dataset)
    round_diagnostics(dataset)
    checkpoint_roundtrip(dataset)


if __name__ == "__main__":
    main()
