"""Memory the LSTM training workspace keeps: one tape, the largest in use.

A tape is scratch for one ``stacked_gradient`` call, so every call shape's
tape views the start of one arena (:mod:`repro.autograd.stacked_lstm`).
A serial solve cycles through up to ``batch_size`` heights (the batch, and
each device's shorter last batch) and a cohort through every lane width
at each height; both must keep the largest shape's tape and no other.
A tape larger than ``TAPE_BYTES`` (a full-batch gradient) must be gone
after the next call of another shape.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autograd import stacked_lstm
from repro.core import FederatedTrainer
from repro.datasets import make_shakespeare_like
from repro.models import CharLSTM
from repro.optim import SGDSolver
from repro.runtime import CohortExecutor, SerialExecutor
from repro.systems import PowerLawStragglers

SEQ_LEN, EMBED, HIDDEN, LAYERS, BATCH = 20, 8, 32, 2, 10


def _tape_bytes(K: int, B: int) -> int:
    """The ``T x B`` blocks of one ``(K, B)`` tape: per layer ``h``, ``c``
    (``T + 1`` rows each), ``tanh(c)`` and the gates; the backward's gate
    gradients and two output-gradient sequences; the input and its
    gradient."""
    T, H, E = SEQ_LEN, HIDDEN, EMBED
    per_row = LAYERS * (2 * (T + 1) + T + 4 * T) * H + (4 + 2) * T * H + 2 * T * E
    return 8 * K * B * per_row


def _model() -> CharLSTM:
    return CharLSTM(vocab_size=30, embed_dim=EMBED, hidden=HIDDEN, num_layers=LAYERS)


def _slack(model: CharLSTM) -> int:
    """Everything a round keeps besides the largest tape's ``T x B`` blocks.

    The tape's parameter-sized blocks (the permuted parameters and two
    gradient sets per layer, and the gradient rows: about four flat models
    per lane) and the round's own state (the global model, the lanes'
    weight stack, the updates): eight flat models per lane, and eight
    more.  And each call shape's cached step views, ~2 KB per step and
    layer measured, 4 KB allowed.
    """
    shapes = model._stacked_store()["lstm_ws"]._tapes
    lanes = max(K for K, *_ in shapes)
    return 8 * 8 * model.n_params * (lanes + 1) + len(shapes) * SEQ_LEN * LAYERS * 4096


@pytest.fixture(scope="module")
def federation():
    dataset = make_shakespeare_like(
        num_devices=30, vocab_size=30, seq_len=SEQ_LEN,
        samples_per_device_mean=30, seed=4,
    )
    residues = {int(n) % BATCH for n in dataset.train_sizes}
    assert residues == set(range(BATCH))  # every last-batch height occurs
    return dataset


def _retained(federation, engine, clients: int, **kwargs) -> tuple:
    """Bytes a one-round run keeps, measured from before its first step."""
    model = _model()
    trainer = FederatedTrainer(
        dataset=federation, model=model, solver=SGDSolver(0.05, batch_size=BATCH),
        mu=0.01, clients_per_round=clients, seed=1, engine=engine, **kwargs
    )
    try:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trainer.run(1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    finally:
        trainer.close()
    return held, model


def test_a_serial_solve_keeps_one_tape(federation):
    """Thirty devices, every last-batch height: the batch's tape alone."""
    held, model = _retained(federation, SerialExecutor(), clients=30, epochs=1.0)
    assert len(model._stacked_store()["lstm_ws"]._tapes) == BATCH
    assert held <= _tape_bytes(1, BATCH) + _slack(model)


def test_a_cohort_round_keeps_one_tape(federation):
    """Lanes retire as their stragglers' budgets run out, so the round runs
    at several widths: the widest one's tape alone."""
    held, model = _retained(
        federation, CohortExecutor(), clients=8, epochs=2.0,
        systems=PowerLawStragglers(1.0, seed=3),
    )
    widths = {K for K, *_ in model._stacked_store()["lstm_ws"]._tapes}
    assert len(widths) >= 3
    assert held <= _tape_bytes(max(widths), BATCH) + _slack(model)


def test_a_tape_above_the_cap_goes_at_the_next_call(monkeypatch):
    rng = np.random.default_rng(0)
    model = _model()
    X = rng.integers(30, size=(200, SEQ_LEN))
    y = rng.integers(30, size=200)
    model.gradient(X[:BATCH], y[:BATCH])
    monkeypatch.setattr(stacked_lstm, "TAPE_BYTES", 2 * _tape_bytes(1, BATCH))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.gradient(X, y)  # a full-batch gradient: its own buffer
        assert tracemalloc.get_traced_memory()[0] - before >= _tape_bytes(1, 200)
        model.gradient(X[:BATCH], y[:BATCH])  # the solve's next step
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # What stays is the parameter row the model's views were last taken of.
    assert held <= 2 * 8 * model.n_params
