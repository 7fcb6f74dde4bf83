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
    few clients' bytes;
(c) the cohort engine's solve holds the cohort's shards, read in place,
    and one gathered chunk with its ones column — no per-round copy of
    the cohort's rows and no whole-round gather plan.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.datasets import make_synthetic_ondemand
from repro.models import MultinomialLogisticRegression
from repro.optim import BatchSchedule, SGDSolver
from repro.runtime import CohortExecutor, LocalTask, cohort
from repro.runtime.packing import plan_cohort

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


@pytest.mark.oracle  # the bound rests on take(out=) / copyto staging no temporary
def test_a_cohort_solve_holds_its_shards_and_one_chunk(monkeypatch):
    """(c) on ``solve_cohort`` itself, with the gather cap below one step so
    a chunk is one step's rows.  The bound is the cohort's shards (read in
    place, never concatenated) and their batch schedules plus the kernel's
    working set: the weight stacks, the results, one gathered chunk of
    ``[x, 1]`` rows with its labels, mask and one-hot block, and one
    lane's staged rows and indices.  A copy of the cohort's rows, a
    whole-round gather plan or a second copy of the chunk would exceed
    it."""
    monkeypatch.setattr(cohort, "_GATHER_CHUNK_BYTES", 32 << 10)
    dataset = make_synthetic_ondemand(1.0, 1.0, num_devices=DEVICES, size_cap=200)
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    solver = SGDSolver(0.01, batch_size=10)
    executor = CohortExecutor()
    executor.bind(dataset, model, solver)
    ids = list(range(0, DEVICES, DEVICES // K))
    w = np.zeros(model.n_params)
    tasks = [
        LocalTask(client_id=c, w_global=w, mu=1.0, epochs=1, rng_entropy=(0, 0, c, 0))
        for c in ids
    ]
    clients = [dataset.store.get(c) for c in ids]
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cohort.solve_cohort(tasks, executor.clients, model, solver)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()

    d, B, C, P = 60, 10, 10, model.n_params
    steps = [BatchSchedule(c.num_train, B, 1).total for c in clients]
    plan = plan_cohort(steps)
    lanes = plan.n_lanes
    # The chains' flat plans (one index a row), batch lengths and bounds.
    schedules = sum(c.num_train for c in clients) * 8 + 2 * (sum(steps) + K) * 8
    stacks = 3 * lanes * P * 8 + K * P * 8  # W, b rows, gradient; results
    chunk = lanes * B * ((d + 1) + 1 + 1 + C) * 8  # [x, 1] rows, labels, mask, one-hot
    # One lane's staged rows, labels, positions and indices: its most
    # steps in a chunk.
    staged = B * (d + 3) * 8 * max(
        min(seg.hi - seg.lo, max(1, (32 << 10) // (seg.width * B * (d + 1) * 8)))
        for seg in plan.segments
    )
    held = sum(_nbytes(c) for c in clients)
    bound = held + schedules + stacks + chunk + staged + (64 << 10)
    assert peak <= bound, f"{peak} B > {bound} B"
