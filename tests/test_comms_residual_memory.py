"""Memory the server holds with error feedback on: O(active cohort).

Error-feedback residuals live in the comms manager's unlinked spill file,
one slot per device that transmitted, so what stays resident does not
grow as new devices join a run.  On a 2000-device federation sampling 50
devices a round, every round brings new devices; an in-memory residual per
device would grow by about 1000 devices x d x 8 B from round 5 to round
40.  Each engine x codec cell is held to less than two cohorts' worth of
residuals, ``2 K d 8`` B, over those rounds.

What does stay resident per device is the spill's ``client_id -> offset``
map: about 116 B a device measured (a dict entry and its index slot, and
the two int objects), held to 160 B over 10^5 devices that each transmit
once, and the same again once their slots are freed and reused.

The same file audits the other state a round carries forward: the async
queue references at most ``window + 1`` round models, and the fault
manager's stale buffer holds no update past the round it was due.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest

from repro.comms.manager import _ResidualSpill
from repro.core import EvalConfig, FederatedTrainer
from repro.datasets import make_synthetic
from repro.faults import ChaosFaults
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver

DEVICES, K, D = 2000, 50, 610
WARM_ROUNDS, ROUNDS = 5, 40
WINDOW = 2
ASYNC = f"async:window={WINDOW},arrivals=seeded,latency=1.2,jitter=0.6"
CODECS = ["comms:codec=qsgd,bits=8,ef=true", "comms:codec=topk,k=60,ef=true"]

#: Two cohorts' residuals; a resident residual per device seen grows ~10x past it.
GROWTH_BOUND = 2 * K * D * 8

#: Resident bytes per device that ever transmitted: its entry in the spill's
#: ``client_id -> offset`` map (module docstring).
MAP_BYTES_PER_DEVICE = 160


@pytest.fixture(scope="module")
def federation():
    return make_synthetic(1.0, 1.0, num_devices=DEVICES, seed=3, size_cap=200)


def _trainer(dataset, engine, comms):
    return FederatedTrainer(
        dataset=dataset,
        model=MultinomialLogisticRegression(dim=60, num_classes=10),
        solver=SGDSolver(0.01, batch_size=50),
        mu=1.0,
        clients_per_round=K,
        epochs=1,
        seed=1,
        engine=engine,
        comms=comms,
        faults=ChaosFaults(0.2, seed=7),
        # Round 0 evaluates; the rounds measured below do not.
        evaluation=EvalConfig(every=ROUNDS + 1, train_every=ROUNDS + 1),
    )


@pytest.mark.parametrize("comms", CODECS)
@pytest.mark.parametrize("engine", ["serial", "cohort", ASYNC])
def test_residuals_stay_out_of_memory(federation, engine, comms):
    with _trainer(federation, engine, comms) as trainer:
        for _ in range(WARM_ROUNDS):
            trainer.run_round()
        transmitted = trainer.comms_stats["residual_clients"]
        tracemalloc.start()
        try:
            for _ in range(ROUNDS - WARM_ROUNDS):
                trainer.run_round()
            growth, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        joined = trainer.comms_stats["residual_clients"] - transmitted
    # The run must bring enough new devices for a per-device store to fail.
    assert joined * D * 8 > 5 * GROWTH_BOUND
    assert growth < GROWTH_BOUND, f"{growth / 2**20:.2f} MiB"


def test_async_queue_and_stale_buffer_release_what_they_hold(federation):
    with _trainer(federation, ASYNC, CODECS[0]) as trainer:
        executor, faults = trainer.executor, trainer._fault_manager
        solve = executor._solve
        models_in_flight = []

        def audited(tasks):
            # Admitted and not yet delivered: the queue plus this delivery.
            queued = [e.task for e in executor._queue] + list(tasks)
            models_in_flight.append(len({id(t.w_global) for t in queued}))
            return solve(tasks)

        executor._solve = audited
        held = 0
        for round_idx in range(ROUNDS):
            trainer.run_round()
            due = [item[0] for item in faults._stale_buffer]
            assert all(r > round_idx for r in due), (round_idx, due)
            held += len(due)
    assert max(models_in_flight) == WINDOW + 1
    assert held > 0  # the stale path ran


def test_the_offset_map_is_bounded_per_device():
    devices, residual = 10**5, np.ones(4)
    spill = _ResidualSpill()
    spill.write(-1, residual)  # opens the file and the read buffer
    spill.free(-1)
    tracemalloc.start()
    try:
        for cid in range(devices):
            spill.write(cid, residual)
        written, _ = tracemalloc.get_traced_memory()
        file_bytes = os.fstat(spill._file.fileno()).st_size
        for cid in range(devices):
            spill.free(cid)
        for cid in range(devices, 2 * devices):  # new devices take the freed slots
            spill.write(cid, residual)
        reused, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spill) == devices
    assert os.fstat(spill._file.fileno()).st_size == file_bytes == devices * residual.nbytes
    assert written < devices * MAP_BYTES_PER_DEVICE, f"{written / devices:.1f} B a device"
    assert reused < devices * MAP_BYTES_PER_DEVICE, f"{reused / devices:.1f} B a device"
