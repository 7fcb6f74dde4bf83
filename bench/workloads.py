"""The six benchmark workloads.

Each workload is a fixed shape: federation data and size, the sequence of
selected devices, model, engine, codec, fault rate, evaluation cadence,
round count.  ``--seed`` changes the *environment* the shape runs in —
mini-batch order, straggler budgets, fault draws, simulated arrival
latencies, the sampled evaluator's per-round sample — never the shape.
The paper fixes data and selected devices across the runs it compares, and
so does this file: a loss target and a final loss are only comparable on
the same data, and with heavy-tailed device sizes the work in a run swings
by ±10 % with *which* devices are drawn, more than any bound worth having.

``rounds`` is sized so the timed region takes about ``BASE_SECONDS`` on
the 2-core reference machine; ``--seconds`` scales it proportionally.
``target`` is a committed constant, never re-derived at run time (see the
note above ``WORKLOADS`` for how each was chosen).
Why each workload exists is recorded beside its name in ``BENCHMARK.json``
and in ``README.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

#: Run length the round counts below are sized for.
BASE_SECONDS = 10

#: Timed rounds of a ``--smoke`` run (evaluated every round, no target).
SMOKE_ROUNDS = 4

#: Seed of every federation's data and of its device-selection sequence
#: (see the module docstring).
SHAPE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int  #: timed rounds at BASE_SECONDS (a multiple of eval_every)
    eval_every: int  #: cadence of the rounds whose train loss is evaluated
    target: float  #: train-loss target of time_to_target_s
    build: Callable  #: (seed, eval_every, ledger_path) -> trainer kwargs

    def scaled_rounds(self, seconds: float, smoke: bool = False) -> int:
        """Timed rounds for a run of ``seconds``: whole evaluation periods."""
        if smoke:
            return SMOKE_ROUNDS
        periods = round(self.rounds * seconds / BASE_SECONDS / self.eval_every)
        return max(1, periods) * self.eval_every


def _selection(dataset, clients_per_round):
    from repro.core.sampling import UniformSamplingWeightedAverage

    return UniformSamplingWeightedAverage(
        dataset, clients_per_round, seed=SHAPE_SEED
    )


def _logistic_trainer(dataset, *, seed, mu=1.0, epochs=20, lr=0.01, **kwargs):
    from repro.models import MultinomialLogisticRegression
    from repro.optim import SGDSolver

    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes
    )
    return dict(
        dataset=dataset,
        model=model,
        solver=SGDSolver(lr, batch_size=10),
        mu=mu,
        epochs=epochs,
        clients_per_round=10,
        sampling=_selection(dataset, 10),
        seed=seed,
        **kwargs,
    )


def _eval(every, **kwargs):
    from repro.core.config import EvalConfig

    return EvalConfig(every=every, train_every=every, **kwargs)


def _paper_synth_serial(seed, eval_every, ledger_path):
    from repro.datasets import make_synthetic
    from repro.systems.stragglers import FractionStragglers

    return _logistic_trainer(
        make_synthetic(1.0, 1.0, num_devices=30, seed=SHAPE_SEED),
        seed=seed,
        systems=FractionStragglers(0.9, seed=seed),
        engine="serial",
        evaluation=_eval(eval_every),
    )


def _synth_cohort_skew(seed, eval_every, ledger_path):
    from repro.datasets import make_synthetic
    from repro.systems.stragglers import PowerLawStragglers

    return _logistic_trainer(
        make_synthetic(1.0, 1.0, num_devices=1000, seed=SHAPE_SEED),
        seed=seed,
        systems=PowerLawStragglers(1.0, seed=seed),
        engine="cohort",
        evaluation=_eval(eval_every),
    )


def _scale_od_sampled(seed, eval_every, ledger_path):
    from repro.core.config import EvalConfig
    from repro.datasets.store import make_synthetic_ondemand

    return _logistic_trainer(
        make_synthetic_ondemand(1.0, 1.0, num_devices=100_000, seed=SHAPE_SEED),
        seed=seed,
        epochs=5,
        engine="serial",
        # Accuracy is estimated every round (the store and the sampled
        # evaluator stay busy), the loss half-way and at the end: which
        # devices the estimate draws changes with the seed, and the time to
        # a first evaluated round only ten rounds in spread by 0.19.
        evaluation=EvalConfig(
            every=1, train_every=eval_every,
            strategy="sampled", sample_size=100, strata=10,
        ),
    )


def _mnist_like():
    from repro.datasets import make_mnist_like

    return make_mnist_like(num_devices=1000, seed=SHAPE_SEED)


def _async_qsgd_ledger(seed, eval_every, ledger_path):
    from repro.faults.models import ChaosFaults
    from repro.telemetry import JSONLSink, Telemetry

    return _logistic_trainer(
        _mnist_like(),
        seed=seed,
        epochs=1,
        lr=0.03,
        engine="async:window=2,arrivals=seeded,latency=1.2,jitter=0.6",
        comms="comms:codec=qsgd,bits=8,ef=true",
        faults=ChaosFaults(0.1, seed=seed),
        telemetry=Telemetry([JSONLSink(ledger_path)], run_id="bench"),
        evaluation=_eval(eval_every),
    )


def _parallel_topk_ipc(seed, eval_every, ledger_path):
    workers = min(2, os.cpu_count() or 1)
    return _logistic_trainer(
        _mnist_like(),
        seed=seed,
        epochs=1,
        lr=0.03,
        engine=f"parallel:{workers}",
        comms="comms:codec=topk,k=785",
        evaluation=_eval(eval_every),
    )


def _charlstm_serial(seed, eval_every, ledger_path):
    from repro.datasets import make_shakespeare_like
    from repro.models import CharLSTM
    from repro.optim import SGDSolver

    dataset = make_shakespeare_like(
        num_devices=10,
        vocab_size=40,
        seq_len=32,
        samples_per_device_mean=40,
        seed=SHAPE_SEED,
    )
    model = CharLSTM(
        vocab_size=40, embed_dim=8, hidden=64, num_layers=2, backend="fused"
    )
    return dict(
        dataset=dataset,
        model=model,
        solver=SGDSolver(0.8, batch_size=10),
        mu=0.001,
        epochs=1,
        clients_per_round=5,
        sampling=_selection(dataset, 5),
        seed=seed,
        engine="serial",
        evaluation=_eval(eval_every),
    )


#: Targets are seed-0 losses from the middle of the run (46-60 % of it),
#: rounded to two or three significant figures and placed away from near-ties,
#: so that seeds 0-5 all cross at the same evaluated round.  Two workloads
#: have no such loss: the sampled estimate on 10^5 Synthetic(1,1) devices
#: hovers around the untrained model's ln(10) with +-0.2 of sampling noise,
#: and the LSTM sits on its unigram plateau from round 7 on.  Their target
#: is a divergence ceiling, met by the first evaluated round unless a change
#: makes the run diverge.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_synth_serial", rounds=170, eval_every=1, target=0.66,
                 build=_paper_synth_serial),
        Workload("synth_cohort_skew", rounds=300, eval_every=10, target=2.18,
                 build=_synth_cohort_skew),
        Workload("scale_od_sampled", rounds=110, eval_every=55, target=3.0,
                 build=_scale_od_sampled),
        Workload("async_qsgd_ledger", rounds=600, eval_every=25, target=0.11,
                 build=_async_qsgd_ledger),
        Workload("parallel_topk_ipc", rounds=500, eval_every=25, target=0.038,
                 build=_parallel_topk_ipc),
        Workload("charlstm_serial", rounds=70, eval_every=10, target=3.9,
                 build=_charlstm_serial),
    )
}
