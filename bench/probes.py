"""Layer probes: direct timed calls into public functions, below the round.

Each probe times one public call on fixed, seeded inputs and reports the
median over ``calls`` calls after three warm-ups.  The inputs never depend
on ``--seed`` or the workload, so a probe moves only when the code under
it does.  Names are ``<layer>.<what>_<unit>``; throughput probes
(``*_mcoords_s``) are better higher, every time probe is better lower.
"""

from __future__ import annotations

import os
import pickle
import statistics
import tempfile
from time import perf_counter
from typing import Callable, Dict

from clock import Calibration

WARMUPS = 3


def _median_seconds(fn: Callable[[int], object], calls: int) -> float:
    """Median time of ``fn(i)`` on the calibrated clock (see ``clock.py``);
    ``i`` counts on through the warm-ups."""
    for i in range(WARMUPS):
        fn(i)
    calibration = Calibration()
    calibration.sample()
    samples = []
    for i in range(WARMUPS, WARMUPS + calls):
        t0 = perf_counter()
        fn(i)
        samples.append(perf_counter() - t0)
    calibration.sample()
    return statistics.median(samples) * calibration.speed


def _comms(calls: int) -> Dict[str, float]:
    import numpy as np

    from repro.comms import CommsConfig

    d = 100_000
    delta = np.random.default_rng(0).standard_normal(d) * 1e-2
    specs = {
        "identity": CommsConfig(codec="identity"),
        "fp16": CommsConfig(codec="fp16"),
        "qsgd8": CommsConfig(codec="qsgd", bits=8),
        "qsgd4": CommsConfig(codec="qsgd", bits=4),
        "topk": CommsConfig(codec="topk", k=d // 10),
    }
    out = {}
    for name, config in specs.items():
        codec = config.build_codec()
        seconds = _median_seconds(lambda i: codec.encode_delta(delta, (0, i, 0, 0)), calls)
        out[f"comms.{name}_encode_mcoords_s"] = d / seconds / 1e6
        if name in ("qsgd8", "topk"):
            payload = codec.encode_delta(delta, (0, 0, 0, 0))
            seconds = _median_seconds(lambda i: codec.decode_delta(payload, d), calls)
            out[f"comms.{name}_decode_mcoords_s"] = d / seconds / 1e6
    return out


def _runtime(calls: int) -> Dict[str, float]:
    import numpy as np

    from repro.core.client import ClientPool, ClientUpdate
    from repro.datasets import make_synthetic
    from repro.datasets.store import make_synthetic_ondemand
    from repro.models import MultinomialLogisticRegression
    from repro.optim import SGDSolver
    from repro.runtime import (
        CohortExecutor,
        FederationEvaluator,
        LocalTask,
        SampledEvaluator,
        SerialExecutor,
    )
    from repro.runtime.packing import plan_cohort

    out = {}
    budgets = np.maximum(
        1, (200 * np.random.default_rng(0).random(1000)).astype(int)
    ).tolist()
    out["runtime.plan_cohort_us"] = 1e6 * _median_seconds(
        lambda i: plan_cohort(budgets), calls
    )

    solver = SGDSolver(0.01, batch_size=10)
    small = make_synthetic(1.0, 1.0, num_devices=30, seed=0)
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    w = model.get_params()
    tasks = [
        LocalTask(client_id=cid, w_global=w, mu=1.0, epochs=20,
                  rng_entropy=(0, 0, cid, 0))
        for cid in range(10)
    ]
    for name, executor in (("cohort", CohortExecutor()), ("serial", SerialExecutor())):
        executor.bind(small, model, solver)
        out[f"runtime.solve_{name}_ms"] = 1e3 * _median_seconds(
            lambda i: executor.run_local_solves(tasks), calls
        )

    big = make_synthetic(1.0, 1.0, num_devices=1000, seed=0)
    evaluator = FederationEvaluator(
        ClientPool(big, model, solver), model, eval_mode="stacked"
    )
    out["runtime.eval_full_1k_ms"] = 1e3 * _median_seconds(
        lambda i: evaluator.train_loss(w), calls
    )

    lazy = make_synthetic_ondemand(1.0, 1.0, num_devices=100_000, seed=0)
    sampled = SampledEvaluator(
        ClientPool(lazy, model, solver), lazy.train_sizes, lazy.test_sizes,
        sample_size=100, num_strata=10, seed=0,
    )
    out["runtime.eval_sampled_ms"] = 1e3 * _median_seconds(
        lambda i: sampled.train_loss(w, i), calls
    )

    wide = np.random.default_rng(0).standard_normal(7850)
    task = LocalTask(client_id=3, w_global=wide, mu=1.0, epochs=1.0,
                     rng_entropy=(0, 1, 3, 0))
    update = ClientUpdate(client_id=3, w=wide.copy(), num_train=80, epochs=1.0,
                          gradient_evaluations=8)
    out["runtime.task_roundtrip_us"] = 1e6 * _median_seconds(
        lambda i: (pickle.loads(pickle.dumps(task)), pickle.loads(pickle.dumps(update))),
        calls,
    )
    return out


def _datasets(calls: int, tmp: str) -> Dict[str, float]:
    from repro.datasets import make_synthetic
    from repro.datasets.store import MmapShardStore, make_synthetic_ondemand

    out = {}
    lazy = make_synthetic_ondemand(1.0, 1.0, num_devices=100_000, seed=0).store
    out["datasets.ondemand_get_cold_us"] = 1e6 * _median_seconds(
        lambda i: lazy.get(1000 + i), calls
    )
    out["datasets.ondemand_get_warm_us"] = 1e6 * _median_seconds(
        lambda i: lazy.get(1000), calls
    )

    eager = make_synthetic(1.0, 1.0, num_devices=200, seed=0)
    with tempfile.TemporaryDirectory(prefix="probe-", dir=tmp) as root:
        out["datasets.mmap_pack_ms"] = 1e3 * _median_seconds(
            lambda i: MmapShardStore.pack(
                eager, os.path.join(root, f"pack{i}"), clients_per_shard=16
            ),
            max(3, calls // 10),
        )
        # One shard handle open at a time, strided access: every get maps
        # a shard the store does not hold.
        store = MmapShardStore(os.path.join(root, "pack0"), max_open_shards=1)
        out["datasets.mmap_get_cold_us"] = 1e6 * _median_seconds(
            lambda i: store.get((i * 16) % 200), calls
        )
    out["datasets.eager_get_us"] = 1e6 * _median_seconds(
        lambda i: eager.store.get(i % 200), calls
    )
    return out


def _kernels(calls: int) -> Dict[str, float]:
    import numpy as np

    from repro.core.sampling import UniformSamplingWeightedAverage
    from repro.datasets import make_shakespeare_like, make_synthetic
    from repro.models import CharLSTM, MLPClassifier, MultinomialLogisticRegression
    from repro.optim import SGDSolver
    from repro.optim.proximal import LocalObjective

    out = {}
    rng = np.random.default_rng(0)
    dataset = make_synthetic(1.0, 1.0, num_devices=30, seed=0)
    scheme = UniformSamplingWeightedAverage(dataset, 10, seed=0)
    updates = [(cid, rng.standard_normal(100_000)) for cid in range(10)]
    previous = np.zeros(100_000)
    out["core.aggregate_k10_d1e5_us"] = 1e6 * _median_seconds(
        lambda i: scheme.aggregate(updates, previous), calls
    )

    X = rng.standard_normal((10, 60))
    y = rng.integers(10, size=10)
    for name, model in (
        ("logreg", MultinomialLogisticRegression(dim=60, num_classes=10)),
        ("mlp", MLPClassifier(dim=60, num_classes=10, hidden=32)),
    ):
        out[f"models.{name}_loss_grad_us"] = 1e6 * _median_seconds(
            lambda i: model.loss_and_gradient(X, y), calls
        )

    text = make_shakespeare_like(
        num_devices=2, vocab_size=40, seq_len=32, samples_per_device_mean=40, seed=0
    )[0]
    tokens, labels = text.train_x[:10], text.train_y[:10]
    for backend in ("fused", "graph"):
        lstm = CharLSTM(vocab_size=40, embed_dim=8, hidden=64, num_layers=2,
                        backend=backend)
        out[f"models.charlstm_{backend}_loss_grad_ms"] = 1e3 * _median_seconds(
            lambda i: lstm.loss_and_gradient(tokens, labels), calls
        )

    # 100 samples, batch 10, one epoch: ten proximal SGD steps per solve.
    client = dataset[0]
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    w0 = model.get_params()
    objective = LocalObjective(
        model, client.train_x[:100], client.train_y[:100], w_ref=w0, mu=1.0
    )
    solver = SGDSolver(0.01, batch_size=10)
    out["optim.sgd_prox_step_us"] = 1e6 / 10 * _median_seconds(
        lambda i: solver.solve(objective, w0, 1.0, np.random.default_rng(i)), calls
    )
    return out


def _telemetry(calls: int, tmp: str) -> Dict[str, float]:
    from repro.core.history import RoundRecord
    from repro.telemetry import NULL_TELEMETRY, HistoryDigest, JSONLSink, span_event

    out = {}
    event = span_event("phase:local_solve", 0.0123, round_idx=7, clients=10)
    with tempfile.TemporaryDirectory(prefix="probe-", dir=tmp) as root:
        sink = JSONLSink(os.path.join(root, "probe.jsonl"))
        try:
            out["telemetry.jsonl_emit_us"] = 1e6 * _median_seconds(
                lambda i: sink.emit(event), calls
            )
        finally:
            sink.close()

    record = RoundRecord(
        round_idx=7, train_loss=0.4321, test_accuracy=0.8765, mu=1.0,
        selected=list(range(10)), stragglers=[1, 4], dropped=[4],
    )
    digest = HistoryDigest()
    out["telemetry.digest_update_us"] = 1e6 * _median_seconds(
        lambda i: digest.update(record), calls
    )

    def thousand_null_spans(i):
        for _ in range(1000):
            with NULL_TELEMETRY.span("phase:select", round_idx=i):
                pass

    out["telemetry.null_span_ns"] = 1e9 / 1000 * _median_seconds(
        thousand_null_spans, calls
    )
    return out


def run_all(calls: int, tmp: str) -> Dict[str, float]:
    """Every probe, by metric name."""
    out = {}
    out.update(_comms(calls))
    out.update(_runtime(calls))
    out.update(_datasets(calls, tmp))
    out.update(_kernels(calls))
    out.update(_telemetry(calls, tmp))
    return out
