"""A run imports only what it uses, and a round imports nothing.

The package namespaces are lazy (``repro._lazy``) and a feature's modules
load where the trainer resolves its configuration, so a logistic, serial,
codec-free, fault-free run — the ``paper_synth_serial`` benchmark
workload — never loads the autograd engine, the neural models, the
codecs, the fault manager, the other engines or the offline tooling.
Each case runs in a fresh interpreter, since this one has imported
everything the suite touches.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: One round of the ``paper_synth_serial`` configuration, with extra
#: imports and trainer options formatted in; prints what was loaded, and
#: what the round itself loaded, as JSON.
RUN = """
import json, sys
{imports}
from repro.core import FederatedTrainer
from repro.core.config import EvalConfig
from repro.core.sampling import UniformSamplingWeightedAverage
from repro.datasets import make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.systems.stragglers import FractionStragglers

dataset = make_synthetic(1.0, 1.0, num_devices=30, seed=0)
trainer = FederatedTrainer(
    dataset=dataset,
    model=MultinomialLogisticRegression(dim=dataset.input_dim, num_classes=10),
    solver=SGDSolver(0.01, batch_size=10),
    mu=1.0,
    epochs=20,
    clients_per_round=10,
    sampling=UniformSamplingWeightedAverage(dataset, 10, seed=0),
    systems=FractionStragglers(0.9, seed=1),
    engine="serial",
    evaluation=EvalConfig(every=1, train_every=1),
    seed=1,
    {options}
)
before = set(sys.modules)
trainer.run_round()
after_round = set(sys.modules)
stats = {{"comms": trainer.comms_stats, "faults": trainer.fault_stats}}
print(json.dumps({{
    "loaded": sorted(sys.modules),
    "in_round": sorted(after_round - before),
    "by_stats": sorted(set(sys.modules) - after_round),
    "stats": stats,
}}))
"""

#: Modules a plain logistic serial run must not load, each with everything
#: under it.
NOT_LOADED = (
    "repro.autograd",
    "repro.nn",
    "repro.models.charlstm",
    "repro.models.sentlstm",
    "repro.models.mlp",
    "repro.models._stacked_seq",
    "repro.comms.codecs",
    "repro.comms.manager",
    "repro.faults.manager",
    "repro.runtime.parallel",
    "repro.runtime.cohort",
    "repro.runtime.async_engine",
    "repro.runtime.packing",
    "repro.runtime.sampled",
    "repro.telemetry.replay",
    "repro.telemetry.analysis",
    "repro.theory",
    "repro.metrics",
    "repro.experiments",
    "multiprocessing",
    "socket",
)


def _run(imports: str = "", options: str = "") -> dict:
    done = subprocess.run(
        [sys.executable, "-c", RUN.format(imports=imports, options=options)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _budget_breaches(loaded) -> list:
    return sorted(
        name for name in loaded
        for banned in NOT_LOADED
        if name == banned or name.startswith(banned + ".")
    )


@pytest.fixture(scope="module")
def plain():
    return _run()


def test_a_plain_run_loads_none_of_the_optional_features(plain):
    assert _budget_breaches(plain["loaded"]) == []


def test_a_round_imports_nothing(plain):
    assert plain["in_round"] == []


def test_stats_of_a_plain_run_load_nothing(plain):
    """``comms_stats`` / ``fault_stats`` of a run with neither feature on
    report their zeros without loading the comms or fault layer."""
    assert [
        name for name in plain["by_stats"]
        if name.startswith(("repro.comms.", "repro.faults."))
    ] == []
    assert plain["by_stats"] == []
    assert plain["stats"]["comms"] == {
        "bytes_up": 0.0,
        "bytes_down": 0.0,
        "dense_bytes_up": 0.0,
        "compression_ratio": 1.0,
        "residual_clients": 0.0,
    }
    assert plain["stats"]["faults"] == dict.fromkeys(
        (
            "injected", "crashes", "offline", "retries", "crash_dropped",
            "quarantined_updates", "quarantined_clients", "quarantine_skips",
            "stale_held", "stale_delivered", "quorum_misses",
        ),
        0,
    )


def test_a_configured_feature_loads_with_its_configuration():
    """Teeth: codecs and faults switched on load their modules, at
    construction — the round still imports nothing."""
    run = _run(
        imports="from repro.faults import ChaosFaults",
        options='comms="comms:codec=qsgd,bits=8", faults=ChaosFaults(0.1),',
    )
    assert {"repro.comms.codecs", "repro.comms.manager", "repro.faults.manager"} <= set(
        _budget_breaches(run["loaded"])
    )
    assert run["in_round"] == []
