"""Memory an LSTM census holds: evaluation is inference, and keeps no tape.

An evaluation forward runs under ``repro.autograd.no_grad`` through the
forward-only ``fused_lstm``, a rolling forward, and never takes a
``T x B x 4H`` activation tape from the model's training workspace.  Were
it to take one, the
workspace would keep it: the stacked census one per block shape, and the
per-client and sampled evaluators one per distinct device size.  Each
census below is held to less than half of *one* 256-row block's forward
tape, and must leave the workspace holding exactly the tape of the solve
step that ran before it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.client import ClientPool
from repro.datasets import make_sent140_like, make_shakespeare_like
from repro.models import SEQ_EVAL_BLOCK_ROWS, CharLSTM, SentimentLSTM
from repro.optim import SGDSolver
from repro.runtime import FederationEvaluator, SampledEvaluator

SEQ_LEN, HIDDEN, LAYERS = 20, 32, 2

FEDERATIONS = {
    "charlstm": (
        lambda: make_shakespeare_like(
            num_devices=40, vocab_size=30, seq_len=SEQ_LEN,
            samples_per_device_mean=30, seed=2,
        ),
        lambda: CharLSTM(vocab_size=30, embed_dim=8, hidden=HIDDEN, num_layers=LAYERS),
    ),
    "sentlstm": (
        lambda: make_sent140_like(
            num_devices=40, seq_len=SEQ_LEN, samples_per_device_mean=30, seed=2
        ),
        lambda: SentimentLSTM(embed_dim=8, hidden=HIDDEN, num_layers=LAYERS),
    ),
}

#: The gate blocks alone of one evaluation block's forward tape.
BLOCK_TAPE_BYTES = SEQ_LEN * SEQ_EVAL_BLOCK_ROWS * 4 * HIDDEN * 8 * LAYERS


@pytest.fixture(scope="module", params=sorted(FEDERATIONS))
def federation(request):
    make_dataset, make_model = FEDERATIONS[request.param]
    return make_dataset(), make_model


def _census(mode, dataset, pool, model):
    if mode == "sampled":
        evaluator = SampledEvaluator(
            pool, dataset.train_sizes, dataset.test_sizes,
            sample_size=12, num_strata=3, seed=2,
        )
        return lambda w: (evaluator.train_loss(w, 1), evaluator.test_accuracy(w, 1))
    evaluator = FederationEvaluator(pool, model, eval_mode=mode)
    return lambda w: (evaluator.train_loss(w), evaluator.test_accuracy(w))


@pytest.mark.parametrize("mode", ["stacked", "per_client", "sampled"])
def test_census_holds_no_tape(federation, mode):
    dataset, make_model = federation
    model = make_model()
    pool = ClientPool(dataset, model, SGDSolver(0.1, batch_size=10))
    device = pool[0]
    model.loss_and_gradient(device.train_x[:10], device.train_y[:10])  # a solve step
    workspace = model._stacked_store()["lstm_ws"]
    tapes = dict(workspace._tapes)
    census = _census(mode, dataset, pool, model)
    sizes = np.concatenate([dataset.train_sizes, dataset.test_sizes])
    assert len(set(sizes.tolist())) > 20 and dataset.train_sizes.sum() > SEQ_EVAL_BLOCK_ROWS

    tracemalloc.start()
    try:
        census(model.get_params())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < BLOCK_TAPE_BYTES / 2, f"{peak / 2**20:.1f} MiB"
    assert workspace._tapes == tapes
