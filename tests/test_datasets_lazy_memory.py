"""Memory a lazy round holds: the clients it is using, nothing more.

On an on-demand federation every client is regenerated on access.  The
store keeps none of them between gets, and the sampled evaluator keeps
only the held-out rows of the devices it samples.  Twenty rounds on a
5000-device federation touch about 2200 clients, so a cache of touched
clients, or a sampled device's training rows kept through the stacked
forward, shows up as megabytes against bounds of a few hundred KB:

(a) what a run retains from trainer construction to its last round stays
    within four of its largest client's bytes, on every engine;
(b) the traced peak inside a round is at most the accuracy sample's
    held-out rows twice (the per-device arrays and their stack) plus a
    few clients' bytes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.datasets import make_synthetic_ondemand
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver

DEVICES, K, ROUNDS, SAMPLE = 5000, 10, 20, 100
ASYNC = "async:window=2,arrivals=seeded,latency=1.2,jitter=0.6"
PARTS = ("train_x", "train_y", "test_x", "test_y")


def _traced_run(engine, **store_kwargs):
    """Run ``ROUNDS`` traced rounds; return the trainer, the bytes retained
    since construction and each round's peak above its starting level."""
    dataset = make_synthetic_ondemand(
        1.0, 1.0, num_devices=DEVICES, size_cap=200, **store_kwargs
    )
    trainer = FederatedTrainer(
        dataset=dataset,
        model=MultinomialLogisticRegression(dim=60, num_classes=10),
        solver=SGDSolver(0.01, batch_size=10),
        mu=1.0,
        clients_per_round=K,
        epochs=1,
        engine=engine,
        evaluation=EvalConfig(
            every=1, train_every=5, strategy="sampled",
            sample_size=SAMPLE, strata=10,
        ),
    )
    peaks = []
    with trainer:
        tracemalloc.start()
        try:
            for _ in range(ROUNDS):
                start, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                trainer.run_round()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return trainer, retained, peaks


def _largest_client(dataset):
    sizes = dataset.train_sizes + dataset.test_sizes
    return dataset.store.get(int(np.argmax(sizes)))


def _nbytes(client):
    return sum(getattr(client, part).nbytes for part in PARTS)


@pytest.mark.parametrize("engine", ["serial", "cohort", ASYNC])
def test_a_run_retains_none_of_the_clients_it_touched(engine):
    trainer, retained, _ = _traced_run(engine)
    assert trainer.dataset.store.cache_info()["misses"] >= ROUNDS * SAMPLE
    bound = 4 * _nbytes(_largest_client(trainer.dataset))
    assert retained <= bound, f"{retained / 2**20:.2f} MiB > {bound} B"


@pytest.mark.parametrize("engine", ["serial", ASYNC])
def test_a_round_peaks_at_its_sampled_held_out_rows(engine):
    trainer, _, peaks = _traced_run(engine, cache_clients=0)
    dataset = trainer.dataset
    client = _largest_client(dataset)
    row_bytes = (client.test_x.nbytes + client.test_y.nbytes) // client.num_test
    sampler = trainer.sampled_evaluator.sampler
    for round_idx, peak in enumerate(peaks):
        sampled = np.concatenate(sampler.sample(round_idx, SAMPLE))
        held_out = row_bytes * int(dataset.test_sizes[sampled].sum())
        bound = 2 * held_out + 8 * _nbytes(client)
        assert peak <= bound, f"round {round_idx}: {peak} B > {bound} B"
