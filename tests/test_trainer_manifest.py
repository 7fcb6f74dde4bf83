"""A trainer is built one way: its constructor, described by one table.

``describe_trainer`` writes the manifest's ``trainer_config`` straight from
a live trainer and ``rebuild_trainer`` reads it straight back into
constructor keywords, both through
:data:`repro.telemetry.replay.TRAINER_SECTIONS`.  These tests hold the
table to the constructor, the pair to a fixed point, and the ``engine``
section to the bytes every committed ledger holds.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.core.sampling import WeightedSamplingSimpleAverage
from repro.datasets import make_synthetic
from repro.faults import ChaosFaults, FaultPolicy
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import engine_section, engine_spec, make_executor
from repro.spec import ReplayError, describe
from repro.telemetry.ledger import RunArtifact
from repro.telemetry.replay import TRAINER_SECTIONS, describe_trainer, rebuild_trainer


@pytest.fixture
def dataset():
    return make_synthetic(1.0, 1.0, num_devices=8, seed=7, size_cap=80)


def _trainer(dataset, **options):
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    options.setdefault("clients_per_round", 4)
    return FederatedTrainer(dataset, model, SGDSolver(0.05, batch_size=8), **options)


def _manifest(dataset, **options):
    with _trainer(dataset, **options) as trainer:
        return describe_trainer(trainer)


def _rebuild(manifest):
    return rebuild_trainer(RunArtifact(path="<manifest>", manifest=manifest))


def test_the_section_table_states_every_constructor_keyword_once():
    stated = [key for keys in TRAINER_SECTIONS.values() for key in keys]
    assert len(stated) == len(set(stated))
    assert set(stated) | {"dataset", "model", "solver", "callbacks"} == set(
        inspect.signature(FederatedTrainer).parameters
    )


@pytest.mark.parametrize("removed", [{"eval_every": 2}, {"executor": "serial"}])
def test_a_removed_option_is_an_unexpected_keyword(dataset, removed):
    with pytest.raises(TypeError, match="unexpected keyword"):
        _trainer(dataset, **removed)


def test_describe_rebuild_describe_is_a_fixed_point(dataset):
    manifest = _manifest(
        dataset,
        mu=1.0,
        epochs=5,
        seed=9,
        faults=ChaosFaults(rate=0.2, seed=4),
        fault_policy=FaultPolicy(on_crash="drop", min_quorum=0.5),
        engine="parallel:2",
        comms="comms:codec=qsgd,bits=6,ef=true",
        evaluation=EvalConfig(
            strategy="sampled", sample_size=5, strata=2, full_every=3, train_every=2
        ),
        label="demo",
    )
    config = manifest["trainer_config"]
    assert list(config) == list(TRAINER_SECTIONS)
    assert config["engine"]["workers"] == 2
    assert config["comms"] == {"codec": "qsgd", "bits": 6, "k": 64, "ef": True}
    assert config["evaluation"]["sample_size"] == 5
    assert config["cohorting"]["faults"]["type"] == "ChaosFaults"
    with _rebuild(manifest) as trainer:
        again = describe_trainer(trainer)
    assert json.dumps(again) == json.dumps(manifest)


def test_a_prebuilt_executor_is_described_by_its_spec(dataset):
    executor = make_executor("async:window=4,seed=7")
    with _trainer(dataset, engine=executor) as trainer:
        assert trainer.executor is executor
        engine = describe_trainer(trainer)["trainer_config"]["engine"]
    assert (engine["mode"], engine["window"], engine["clock_seed"]) == ("async", 4, 7)
    assert engine_spec(engine) == "async:window=4,seed=7"


@pytest.mark.parametrize("engine", [42, object(), {"mode": "serial"}])
def test_engine_is_a_spec_string_an_executor_or_none(dataset, engine):
    with pytest.raises(TypeError, match="engine must be"):
        _trainer(dataset, engine=engine)


def test_k_stated_twice_must_agree(dataset):
    with pytest.raises(ValueError, match="clients_per_round=3.* selects 6 "):
        _trainer(
            dataset,
            clients_per_round=3,
            sampling=WeightedSamplingSimpleAverage(dataset, 6),
        )
    with _trainer(
        dataset, clients_per_round=5, sampling=WeightedSamplingSimpleAverage(dataset, 5)
    ) as trainer:
        assert len(trainer.sampling.select(0)) == 5


def test_sections_an_older_manifest_lacks_take_the_constructor_defaults(dataset):
    manifest = _manifest(dataset, engine="cohort", comms="comms:codec=fp16")
    for section in ("engine", "comms", "diagnostics"):
        del manifest["trainer_config"][section]
    del manifest["trainer_config"]["optimization"]["epochs"]
    with _rebuild(manifest) as trainer:
        assert trainer.executor_mode == "serial"
        assert not trainer.comms_config.enabled
        assert not trainer.track_dissimilarity
        assert trainer.epochs == 20


def test_an_unregistered_component_is_refused_by_name(dataset):
    manifest = _manifest(dataset)
    manifest["trainer_config"]["cohorting"]["sampling"] = describe(object())
    assert manifest["trainer_config"]["cohorting"]["sampling"] == {"type": "object"}
    with pytest.raises(ReplayError, match="unknown cohorting.sampling type 'object'"):
        _rebuild(manifest)


#: The manifest's ``engine`` section, byte for byte, as the writer that
#: came before :func:`~repro.runtime.engine_section` produced it.
ASYNC_DEFAULTS = (
    '"window": 0, "discount": "poly", "discount_power": 1.0, '
    '"discount_factor": 0.5, "capacity": 0, "arrivals": "synchronized", '
    '"latency": 1.0, "jitter": 0.5, "clock_seed": null'
)
FROZEN_ENGINE_SECTIONS = {
    "serial": '{"mode": "serial", "workers": null, ' + ASYNC_DEFAULTS + "}",
    "cohort": '{"mode": "cohort", "workers": null, ' + ASYNC_DEFAULTS + "}",
    "parallel": '{"mode": "parallel", "workers": null, ' + ASYNC_DEFAULTS + "}",
    "parallel:2": '{"mode": "parallel", "workers": 2, ' + ASYNC_DEFAULTS + "}",
    "parallel:auto": '{"mode": "parallel", "workers": "auto", ' + ASYNC_DEFAULTS + "}",
    "async": '{"mode": "async", "workers": null, ' + ASYNC_DEFAULTS + "}",
    "async:window=3,discount=const,factor=0.25,arrivals=seeded,seed=9": (
        '{"mode": "async", "workers": null, "window": 3, "discount": "const", '
        '"discount_power": 1.0, "discount_factor": 0.25, "capacity": 0, '
        '"arrivals": "seeded", "latency": 1.0, "jitter": 0.5, "clock_seed": 9}'
    ),
}


@pytest.mark.oracle
@pytest.mark.parametrize("spec", sorted(FROZEN_ENGINE_SECTIONS))
def test_the_engine_section_is_frozen(spec):
    assert json.dumps(engine_section(spec)) == FROZEN_ENGINE_SECTIONS[spec]
    assert engine_spec(json.loads(FROZEN_ENGINE_SECTIONS[spec])) == spec
