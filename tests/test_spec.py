"""The one describe / build registry and the one spec-string grammar.

Completeness is checked by enumeration: every concrete model, solver,
systems model (fault schedules included), sampling scheme and trainer class
under ``repro``, and every builder ``repro.datasets`` exports, must be
registered (or sit in the explicit non-reconstructible list) *and* have a
sample below — so a new component cannot ship without its round-trip being
exercised here.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets as datasets
import repro.spec
from repro.comms.config import COMMS_GRAMMAR, CODEC_NAMES, CommsConfig
from repro.core import FedDaneTrainer, FederatedTrainer
from repro.core.adaptive_mu import AdaptiveMuController
from repro.core.sampling import (
    SamplingScheme,
    UniformSamplingWeightedAverage,
    WeightedSamplingSimpleAverage,
)
from repro.faults import (
    ChaosFaults,
    ComposeFaults,
    CorruptionFaults,
    CrashFaults,
    DropoutFaults,
    FaultPolicy,
    NoFaults,
    StaleFaults,
)
from repro.models import (
    CharLSTM,
    MLPClassifier,
    MultinomialLogisticRegression,
    SentimentLSTM,
)
from repro.models.base import FederatedModel
from repro.optim import AdamSolver, GDSolver, MomentumSGDSolver, SGDSolver
from repro.optim.base import LocalSolver
from repro.runtime import (
    ASYNC_GRAMMAR,
    DISCOUNTS,
    AsyncExecutor,
    engine_section,
    engine_spec,
)
from repro.spec import ReplayError, build, describe, register, registered
from repro.systems import (
    ClockDrivenSystems,
    DeviceProfile,
    FractionStragglers,
    NoHeterogeneity,
    PowerLawStragglers,
    sample_fleet,
)
from repro.systems.stragglers import SystemsModel


@pytest.fixture(scope="module")
def live():
    """The process-local objects ``build`` offers to every constructor."""
    dataset = datasets.make_synthetic(1.0, 1.0, num_devices=12, seed=3, size_cap=60)
    return {
        "dataset": dataset,
        "model": MultinomialLogisticRegression(dim=60, num_classes=10),
        "solver": SGDSolver(0.05, batch_size=8),
    }


#: One instance per registered class, built with non-default arguments.
SAMPLES = {
    "MultinomialLogisticRegression": lambda live: MultinomialLogisticRegression(
        dim=5, num_classes=3, l2=0.01, seed=4, init_scale=0.1
    ),
    "MLPClassifier": lambda live: MLPClassifier(dim=5, num_classes=3, hidden=7, seed=2),
    "CharLSTM": lambda live: CharLSTM(
        vocab_size=9, embed_dim=3, hidden=4, num_layers=1, seed=5, backend="graph"
    ),
    "SentimentLSTM": lambda live: SentimentLSTM(
        vocab_size=17, embed_dim=3, hidden=4, num_layers=1,
        trainable_embedding=True, seed=6,
    ),
    "SGDSolver": lambda live: SGDSolver(0.03, batch_size=7),
    "MomentumSGDSolver": lambda live: MomentumSGDSolver(0.02, momentum=0.8, batch_size=6),
    "GDSolver": lambda live: GDSolver(0.4),
    "AdamSolver": lambda live: AdamSolver(0.002, beta1=0.8, beta2=0.95, eps=1e-6, batch_size=5),
    "NoHeterogeneity": lambda live: NoHeterogeneity(),
    "FractionStragglers": lambda live: FractionStragglers(0.9, seed=8),
    "PowerLawStragglers": lambda live: PowerLawStragglers(1.7, seed=9),
    "ClockDrivenSystems": lambda live: ClockDrivenSystems(
        sample_fleet(4, np.random.default_rng(1)), deadline=10.0,
        model_megabits=2.0, jitter_sigma=0.1, seed=3,
    ),
    "NoFaults": lambda live: NoFaults(),
    "CrashFaults": lambda live: CrashFaults(0.4, seed=7, min_fraction=0.2, max_fraction=0.8),
    "DropoutFaults": lambda live: DropoutFaults(0.2, seed=2),
    "CorruptionFaults": lambda live: CorruptionFaults(0.1, seed=3, mode="noise", scale=2.0),
    "StaleFaults": lambda live: StaleFaults(0.3, seed=4, max_delay=5),
    "ChaosFaults": lambda live: ChaosFaults(0.3, seed=1, kinds=("crash", "stale"), max_delay=2),
    "ComposeFaults": lambda live: ComposeFaults(
        [DropoutFaults(0.1, seed=2), ChaosFaults(0.2, seed=3)]
    ),
    "UniformSamplingWeightedAverage": lambda live: UniformSamplingWeightedAverage(
        live["dataset"], clients_per_round=4, seed=11
    ),
    "WeightedSamplingSimpleAverage": lambda live: WeightedSamplingSimpleAverage(
        live["dataset"], clients_per_round=3, seed=12
    ),
    "FederatedTrainer": lambda live: FederatedTrainer(**live, clients_per_round=4),
    "FedDaneTrainer": lambda live: FedDaneTrainer(
        **live, clients_per_round=4, gradient_clients=7
    ),
    "FaultPolicy": lambda live: FaultPolicy(on_crash="retry", max_retries=5, min_quorum=0.4),
    "AdaptiveMuController": lambda live: AdaptiveMuController(
        initial_mu=0.5, step=0.2, patience=2, mu_max=3.0
    ),
    "DeviceProfile": lambda live: DeviceProfile(3, 1.5, "4g", 0.7),
}

#: Small arguments for every registered dataset builder.
BUILDER_CALLS = {
    "make_synthetic": dict(alpha=0.5, beta=1.0, num_devices=4, seed=2, size_cap=60),
    "make_synthetic_iid": dict(num_devices=4, seed=2, size_cap=60),
    "make_synthetic_ondemand": dict(alpha=1.0, beta=1.0, num_devices=50, seed=2, size_cap=60),
    "make_prototype_image_dataset": dict(
        name="proto", num_devices=4, num_classes=5, classes_per_device=2,
        total_samples=120, dim=16, seed=2,
    ),
    "make_mnist_like": dict(num_devices=4, total_samples=120, dim=16, seed=2, noise=0.2),
    "make_femnist_like": dict(num_devices=4, total_samples=120, dim=16, seed=2),
    "make_shakespeare_like": dict(
        num_devices=3, vocab_size=10, seq_len=5, samples_per_device_mean=20, seed=2
    ),
    "make_sent140_like": dict(num_devices=3, vocab_size=32, seq_len=5, seed=2),
}


def concrete_subclasses(base):
    """Every non-abstract, public class under ``repro`` that is a ``base``."""
    found, stack = set(), [base]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if (
            cls.__module__.startswith("repro.")
            and not inspect.isabstract(cls)
            and not cls.__name__.startswith("_")
        ):
            found.add(cls)
    return found


COMPONENT_BASES = (
    FederatedModel, LocalSolver, SystemsModel, SamplingScheme, FederatedTrainer
)


class TestCompleteness:
    @pytest.mark.parametrize("base", COMPONENT_BASES, ids=lambda b: b.__name__)
    def test_every_concrete_component_is_registered_and_sampled(self, base):
        classes = concrete_subclasses(base)
        assert classes, f"no concrete {base.__name__} found"
        for cls in classes:
            assert registered().get(cls.__name__) is cls, (
                f"{cls.__name__} is not registered (repro.spec.register)"
            )
            assert cls.__name__ in SAMPLES, f"{cls.__name__} has no sample here"

    def test_every_registered_class_has_a_sample(self):
        classes = {
            name for name, target in registered().items()
            if inspect.isclass(target) and target.__module__.startswith("repro.")
        }
        assert classes == set(SAMPLES)

    def test_every_exported_builder_is_registered_or_listed(self):
        exported = {
            name for name in datasets.__all__
            if name.startswith("make_") or name in ("federate_arrays", "load_leaf")
        }
        listed = set(datasets.NOT_RECONSTRUCTIBLE)
        assert listed == {"federate_arrays", "load_leaf"}
        builders = {
            name for name, target in registered("builder").items()
            if target.__module__.startswith("repro.")
        }
        assert exported - listed == builders == set(BUILDER_CALLS)
        for name in exported - listed:
            assert registered("builder")[name] is getattr(datasets, name)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_describe_build_describe(self, name, live):
        original = SAMPLES[name](live)
        spec = describe(original)
        assert spec == json.loads(json.dumps(spec)), "description is not plain JSON"
        tag = "trainer" if isinstance(original, FederatedTrainer) else "type"
        assert spec[tag] == name
        rebuilt = build(spec, name, **live, clients_per_round=4)
        assert type(rebuilt) is type(original)
        assert describe(rebuilt) == spec

    @pytest.mark.parametrize("name", sorted(BUILDER_CALLS))
    def test_builders_capture_their_bound_arguments(self, name):
        builder = registered("builder")[name]
        original = builder(**BUILDER_CALLS[name])
        recipe = describe(original)
        assert recipe["builder"] == name
        assert recipe == json.loads(json.dumps(recipe))
        # Every parameter is recorded, the ones left at their defaults too.
        defaults = {
            n: p.default for n, p in inspect.signature(builder).parameters.items()
            if p.default is not inspect.Parameter.empty and n != "rng"
        }
        assert {**defaults, **BUILDER_CALLS[name]} == {
            k: v for k, v in recipe.items() if k != "builder"
        }
        rebuilt = build(recipe, "dataset")
        assert describe(rebuilt) == recipe
        assert rebuilt.name == original.name
        np.testing.assert_array_equal(rebuilt[1].train_x, original[1].train_x)
        np.testing.assert_array_equal(rebuilt[1].test_y, original[1].test_y)

    @pytest.mark.parametrize(
        "name", [n for n in sorted(BUILDER_CALLS) if n != "make_synthetic_ondemand"]
    )
    def test_caller_owned_rng_means_no_recipe(self, name):
        builder = registered("builder")[name]
        built = builder(**BUILDER_CALLS[name], rng=np.random.default_rng(0))
        assert built.recipe is None and describe(built) is None

    def test_caller_owned_arrays_have_no_recipe(self):
        rng = np.random.default_rng(0)
        dataset = datasets.federate_arrays(
            rng.normal(size=(60, 4)), rng.integers(3, size=60), num_devices=3, seed=1
        )
        assert describe(dataset) is None


class TestRefusals:
    def test_unregistered_object_is_identified_but_not_built(self):
        class Mystery:
            pass

        assert describe(Mystery()) == {"type": "Mystery"}
        with pytest.raises(ReplayError, match="unknown cohorting.systems type 'Mystery'"):
            build({"type": "Mystery"}, "cohorting.systems")

    def test_wrong_tag_is_unknown(self):
        with pytest.raises(ReplayError, match="unknown dataset builder 'SGDSolver'"):
            build({"builder": "SGDSolver"}, "dataset")

    def test_malformed_spec(self):
        with pytest.raises(ReplayError, match="malformed model spec"):
            build({"dim": 3}, "model")

    def test_missing_live_argument_names_the_component(self):
        spec = {"type": "UniformSamplingWeightedAverage", "clients_per_round": 2, "seed": 0}
        with pytest.raises(
            ReplayError,
            match="cohorting.sampling type 'UniformSamplingWeightedAverage' rejected.*dataset",
        ):
            build(spec, "cohorting.sampling")

    def test_nested_refusal_names_the_path(self):
        spec = {"type": "ComposeFaults", "schedules": [{"type": "Gremlins"}]}
        with pytest.raises(ReplayError, match="unknown faults.schedules type 'Gremlins'"):
            build(spec, "faults")

    def test_a_constructor_argument_kept_under_another_name_cannot_be_described(self):
        @register
        class Renamer:
            def __init__(self, rate):
                self.speed = rate

        try:
            with pytest.raises(AttributeError, match="'Renamer' object has no attribute 'rate'"):
                describe(Renamer(1.0))
        finally:
            import repro.spec

            del repro.spec._REGISTRY["Renamer"]


# --------------------------------------------------------------------- #
# The name → module table
# --------------------------------------------------------------------- #
def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; its last stdout line, as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.spec.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


#: Imports the table's modules one by one and names each entry whose
#: module is not where the name registers (``argv[1]`` replaces one
#: entry's module); then compares ``registered()`` with what importing
#: every module of the package registers.
TABLE_CHECK = """
import importlib, json, pkgutil, sys
import repro, repro.spec as spec

def state():
    return {n: [e.target.__module__, e.target.__qualname__, e.tag]
            for n, e in spec._REGISTRY.items()}

name, module = json.loads(sys.argv[1]) or (None, None)
table = {m: [n for n in names if n != name] for m, names in spec._MODULES.items()}
if name is not None:
    table.setdefault(module, []).append(name)
misplaced = []
for where, names in table.items():
    importlib.import_module(where)
    misplaced += [n for n in names if state().get(n, [None])[0] != where]
lazy = {n: state()[n] for n in spec.registered()}
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
print(json.dumps({"misplaced": misplaced, "lazy": lazy, "eager": state()}))
"""


class TestModuleTable:
    """``repro.spec`` imports a component's module when a name needs it."""

    def test_the_table_is_what_the_decorators_register(self):
        found = _fresh(TABLE_CHECK, "null")
        assert found["misplaced"] == []
        assert found["lazy"] == found["eager"]
        assert len(found["eager"]) >= 30

    def test_a_misplaced_entry_is_reported(self):
        """Teeth: a table entry naming the wrong module fails the check."""
        found = _fresh(TABLE_CHECK, json.dumps(["ChaosFaults", "repro.faults.policy"]))
        assert found["misplaced"] == ["ChaosFaults"]

    def test_build_imports_only_the_components_module(self):
        loaded = _fresh(
            "import json, sys\n"
            "import repro.spec\n"
            "assert 'repro.faults' not in sys.modules\n"
            "built = repro.spec.build({'type': 'ChaosFaults', 'rate': 0.1, 'seed': 3}, 'faults')\n"
            "assert repro.spec.describe(built)['rate'] == 0.1\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
        )
        assert "repro.faults.models" in loaded
        assert not {"repro.faults.manager", "repro.core", "repro.models"} & set(loaded)

    def test_an_unknown_name_lists_every_registered_name(self):
        message = _fresh(
            "import json\n"
            "from repro.spec import ReplayError, build\n"
            "try:\n"
            "    build({'type': 'Gremlins'}, 'faults')\n"
            "except ReplayError as error:\n"
            "    print(json.dumps(str(error)))"
        )
        listed = ast.literal_eval(message[message.index("["):message.index("]") + 1])
        assert listed == sorted(
            name for name, target in registered("type").items()
            if target.__module__.startswith("repro.")
        )


# --------------------------------------------------------------------- #
# The shared key=value grammar
# --------------------------------------------------------------------- #
finite = st.floats(allow_nan=False, allow_infinity=False)

#: Every async field at a value its parser reads back.
async_fields = st.fixed_dictionaries(dict(
    window=st.integers(0, 50),
    discount=st.sampled_from(DISCOUNTS),
    discount_power=finite,
    discount_factor=finite,
    capacity=st.integers(0, 1000),
    arrivals=st.sampled_from(["synchronized", "seeded", "systems"]),
    latency=finite,
    jitter=finite,
    clock_seed=st.none() | st.integers(0, 2**31),
))

comms_configs = st.builds(
    CommsConfig,
    codec=st.sampled_from(CODEC_NAMES),
    bits=st.integers(1, 16),
    k=st.integers(1, 10_000),
    ef=st.booleans(),
)


class TestSpecGrammar:
    @settings(max_examples=200, deadline=None)
    @given(async_fields)
    def test_async_engine_section_inverts_the_spec(self, fields):
        spec = engine_spec({"mode": "async", **fields})
        section = engine_section(spec)
        assert section == {"mode": "async", "workers": None, **fields}
        assert engine_spec(section) == spec

    @settings(max_examples=200, deadline=None)
    @given(comms_configs)
    def test_comms_parse_inverts_render(self, config):
        spec = config.spec()
        assert spec == COMMS_GRAMMAR.render(config)
        assert CommsConfig.from_spec(spec) == config

    def test_render_emits_only_what_differs_from_the_defaults(self):
        assert engine_spec({"mode": "async"}) == "async"
        assert CommsConfig().spec() == "comms"
        assert (
            CommsConfig(codec="qsgd", ef=True).spec() == "comms:codec=qsgd,ef=true"
        )
        assert AsyncExecutor(window=3, clock_seed=5).spec() == "async:window=3,seed=5"

    def test_the_tables_hold_the_declared_defaults(self):
        """One table per grammar; the dataclass and constructor defaults agree."""
        executor = inspect.signature(AsyncExecutor).parameters
        for _key, name, _parse, default in ASYNC_GRAMMAR.keys:
            assert engine_section("serial")[name] == default
            assert executor[name].default == default
        assert {name for _, name, _, _ in ASYNC_GRAMMAR.keys} == set(executor)
        for _key, name, _parse, default in COMMS_GRAMMAR.keys:
            assert getattr(CommsConfig(), name) == default

    @pytest.mark.parametrize(
        "grammar, spec, body, fragment",
        [
            (ASYNC_GRAMMAR, "async:window", "window", "malformed async option 'window'"),
            (ASYNC_GRAMMAR, "async:=2", "=2", "malformed async option '=2'"),
            (COMMS_GRAMMAR, "comms:qsgd,ef", "qsgd,ef", "malformed comms option 'ef'"),
            (ASYNC_GRAMMAR, "async:widnow=2", "widnow=2", "unknown async option 'widnow'.*valid keys"),
            (COMMS_GRAMMAR, "comms:what=1", "what=1", "unknown comms option 'what'.*valid keys"),
            (ASYNC_GRAMMAR, "async:window=two", "window=two", "bad value 'two'.*expected int"),
            (COMMS_GRAMMAR, "comms:ef=maybe", "ef=maybe", "bad value 'maybe'.*expected boolean"),
            (ASYNC_GRAMMAR, "async:window=1,window=2", "window=1,window=2", "duplicate async option"),
            (COMMS_GRAMMAR, "comms:qsgd,codec=topk", "qsgd,codec=topk", "duplicate comms option"),
        ],
    )
    def test_both_grammars_reject_through_the_one_parser(
        self, grammar, spec, body, fragment
    ):
        with pytest.raises(ValueError, match=fragment) as caught:
            grammar.parse(spec, body)
        assert repr(spec) in str(caught.value)

    def test_blank_items_are_skipped_and_a_bare_token_needs_a_grammar_that_has_one(self):
        assert ASYNC_GRAMMAR.parse("async:", "") == {}
        assert COMMS_GRAMMAR.parse("comms:topk,,k=3,", "topk,,k=3,") == {
            "codec": "topk", "k": 3,
        }
        with pytest.raises(ValueError, match="malformed async option 'poly'"):
            ASYNC_GRAMMAR.parse("async:poly", "poly")
