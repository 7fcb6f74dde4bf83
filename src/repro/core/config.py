"""Config-first trainer construction: :class:`TrainerConfig`.

:class:`~repro.core.server.FederatedTrainer` historically took ~25 flat
keyword arguments.  :class:`TrainerConfig` groups them into five frozen
sub-sections matching the trainer's concerns:

* :class:`OptimizationConfig` — the algorithm itself (µ, E, straggler
  semantics, adaptive-µ controller).
* :class:`CohortConfig` — who participates and under what simulated
  environment (K, sampling scheme, systems model, fault schedule + policy).
* :class:`EvalConfig` — when and how the federation is evaluated.
* :class:`EngineConfig` — the round execution engine (serial / parallel /
  cohort / async) and its parameters.
* :class:`~repro.comms.config.CommsConfig` — update compression: which
  codec (if any) compresses client uploads, and whether error feedback is
  enabled.
* :class:`DiagnosticsConfig` — observability (γ/dissimilarity tracking,
  telemetry, cost accounting).

Construct with ``FederatedTrainer.from_config(dataset, model, solver,
config)``, which unpacks :meth:`TrainerConfig.trainer_kwargs` into the
constructor — the config and the constructor share one set of names
(:meth:`TrainerConfig.from_kwargs` is the inverse).  Scalar-valued configs
additionally round-trip through JSON-friendly dicts
(:meth:`TrainerConfig.to_dict` / :meth:`TrainerConfig.from_dict`), which is
also what the telemetry manifest embeds — including the full async engine
parameterization, so ``repro.trace replay`` rebuilds async runs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from ..comms.config import CommsConfig
from ..faults.models import FaultSchedule
from ..faults.policy import FaultPolicy
from ..spec import build, describe
from ..systems.costs import CostTracker
from ..systems.stragglers import SystemsModel
from .adaptive_mu import AdaptiveMuController
from .sampling import SamplingScheme

if TYPE_CHECKING:  # avoid importing the runtime at module load
    from ..runtime.executor import RoundExecutor


@dataclass(frozen=True)
class OptimizationConfig:
    """The algorithm: proximal term, work target, straggler semantics."""

    mu: float = 0.0
    epochs: float = 20
    drop_stragglers: bool = False
    mu_controller: Optional[AdaptiveMuController] = None


@dataclass(frozen=True)
class CohortConfig:
    """Who participates each round, and the simulated environment."""

    clients_per_round: int = 10
    sampling: Optional[SamplingScheme] = None
    systems: Optional[SystemsModel] = None
    faults: Optional[FaultSchedule] = None
    fault_policy: Optional[FaultPolicy] = None


@dataclass(frozen=True)
class EvalConfig:
    """When and how the global model is evaluated.

    ``strategy`` selects the evaluation strategy: ``"full"`` (exhaustive,
    the historical behavior) or ``"sampled"`` (size-stratified subsample
    with confidence intervals — see :mod:`repro.runtime.sampled`); the
    ``sample_size`` / ``strata`` / ``full_every`` knobs apply only to the
    sampled strategy.  ``train_every`` skips the per-round training-loss
    evaluation on intermediate rounds (records hold ``None`` there) —
    independent of ``every``, which gates the test/dissimilarity
    evaluation.  ``mode`` picks the full-census evaluation kernel
    (``"auto"`` / ``"stacked"`` / ``"per_client"``, see
    :mod:`repro.runtime.evaluation`); a sampled accuracy estimate stacks
    only its own sample's rows whatever the mode, with identical values.
    """

    every: int = 1
    test: bool = True
    mode: str = "auto"
    strategy: str = "full"
    sample_size: int = 100
    strata: int = 10
    full_every: int = 0
    train_every: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in ("full", "sampled"):
            raise ValueError(
                f"eval strategy must be 'full' or 'sampled', got "
                f"{self.strategy!r}"
            )
        if self.every < 1:
            raise ValueError("eval every must be at least 1")
        if self.train_every < 1:
            raise ValueError("eval train_every must be at least 1")

    @classmethod
    def resolve(cls, evaluation: Optional["EvalConfig"]) -> "EvalConfig":
        """``None`` → the defaults; any other non-:class:`EvalConfig` is refused."""
        if evaluation is None:
            return cls()
        if not isinstance(evaluation, cls):
            raise TypeError(
                f"evaluation must be an EvalConfig, got {type(evaluation).__name__}"
            )
        return evaluation


@dataclass(frozen=True)
class EngineConfig:
    """The round execution engine and its parameters.

    ``mode`` selects the engine (``"serial"`` / ``"parallel"`` /
    ``"cohort"`` / ``"async"``); the remaining fields parameterize it:
    ``workers`` applies to the parallel engine, everything else to the
    async engine (see :class:`~repro.runtime.async_engine.AsyncExecutor`
    for the semantics of ``window`` / ``discount`` / ``capacity`` /
    ``arrivals``).  :meth:`spec` renders the canonical executor spec
    string (``"parallel:4"``, ``"async:window=2,discount=poly"``) and
    :meth:`from_spec` parses one — the grammar and this config are
    lossless inverses, which is what lets the run ledger serialize an
    async engine and ``repro.trace replay`` rebuild it exactly.
    """

    mode: str = "serial"
    workers: Optional[Union[int, str]] = None
    window: int = 0
    discount: str = "poly"
    discount_power: float = 1.0
    discount_factor: float = 0.5
    capacity: int = 0
    arrivals: str = "synchronized"
    latency: float = 1.0
    jitter: float = 0.5
    clock_seed: Optional[int] = None
    #: Prebuilt executor instance to use verbatim (not serializable; two
    #: configs differing only here compare equal).
    instance: Optional["RoundExecutor"] = field(
        default=None, compare=False, repr=False
    )

    def spec(self) -> str:
        """The canonical executor spec string describing this engine."""
        if self.mode == "parallel":
            return (
                "parallel" if self.workers is None
                else f"parallel:{self.workers}"
            )
        if self.mode == "async":
            from ..runtime import ASYNC_GRAMMAR

            return ASYNC_GRAMMAR.render(self)
        return self.mode

    @classmethod
    def from_spec(cls, spec: str, instance: Optional["RoundExecutor"] = None) -> "EngineConfig":
        """Parse an executor spec string into an :class:`EngineConfig`."""
        from ..runtime import parse_executor_spec

        mode, kwargs = parse_executor_spec(spec)
        if mode == "parallel" and "n_workers" in kwargs:
            kwargs = {"workers": kwargs["n_workers"]}
        return cls(mode=mode, instance=instance, **kwargs)

    @classmethod
    def resolve(cls, engine: Any) -> "EngineConfig":
        """Coerce any accepted ``engine`` value to a config.

        ``None`` → the serial default; a spec string is parsed; an
        :class:`EngineConfig` passes through; a prebuilt
        :class:`~repro.runtime.executor.RoundExecutor` is wrapped (its
        :meth:`~repro.runtime.executor.RoundExecutor.spec` recovers the
        parameterization so the ledger still serializes it fully).
        """
        if engine is None:
            return cls()
        if isinstance(engine, cls):
            return engine
        if isinstance(engine, str):
            return cls.from_spec(engine)
        if hasattr(engine, "run_local_solves"):  # RoundExecutor duck type
            return cls.from_spec(engine.spec(), instance=engine)
        raise TypeError(
            "engine must be an EngineConfig, an executor spec string, or a "
            f"RoundExecutor instance; got {type(engine).__name__}"
        )

    def build(self) -> "RoundExecutor":
        """The executor this config describes (prebuilt instance wins)."""
        if self.instance is not None:
            return self.instance
        from ..runtime import make_executor

        return make_executor(self.spec())

    def to_dict(self) -> Dict[str, Any]:
        """Scalar description of this engine (``instance`` is omitted)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "instance"
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "EngineConfig":
        return cls(**{k: v for k, v in spec.items() if k != "instance"})


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Observability: paper diagnostics, telemetry, cost accounting."""

    track_dissimilarity: bool = False
    track_gamma: bool = False
    dissimilarity_max_clients: Optional[int] = None
    telemetry: Any = None
    cost_tracker: Optional[CostTracker] = None


#: Trainer keyword -> (section attribute, field name) for the options the
#: constructor takes one by one; ``evaluation`` / ``engine`` / ``comms``
#: travel as whole sub-config objects and ``seed`` / ``label`` sit at the
#: top level.
_KWARG_MAP = {
    "mu": ("optimization", "mu"),
    "epochs": ("optimization", "epochs"),
    "drop_stragglers": ("optimization", "drop_stragglers"),
    "mu_controller": ("optimization", "mu_controller"),
    "clients_per_round": ("cohorting", "clients_per_round"),
    "sampling": ("cohorting", "sampling"),
    "systems": ("cohorting", "systems"),
    "faults": ("cohorting", "faults"),
    "fault_policy": ("cohorting", "fault_policy"),
    "track_dissimilarity": ("diagnostics", "track_dissimilarity"),
    "track_gamma": ("diagnostics", "track_gamma"),
    "dissimilarity_max_clients": ("diagnostics", "dissimilarity_max_clients"),
    "telemetry": ("diagnostics", "telemetry"),
    "cost_tracker": ("diagnostics", "cost_tracker"),
}


#: The sections whose fields :func:`repro.spec.describe` serializes one by
#: one (the engine and comms sections are dicts of their own scalar fields).
_DESCRIBED_SECTIONS = {
    "optimization": OptimizationConfig,
    "cohorting": CohortConfig,
    "evaluation": EvalConfig,
    "diagnostics": DiagnosticsConfig,
}


@dataclass(frozen=True)
class TrainerConfig:
    """Grouped, immutable configuration for one federated training run.

    Attributes
    ----------
    optimization, cohorting, evaluation, engine, comms, diagnostics:
        The six concern groups (see module docstring).
    seed:
        Seed fixing device selection, straggler/fault draws, and
        mini-batch orders.
    label:
        Display name for histories and telemetry manifests.
    """

    optimization: OptimizationConfig = field(default_factory=OptimizationConfig)
    cohorting: CohortConfig = field(default_factory=CohortConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    comms: CommsConfig = field(default_factory=CommsConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    seed: int = 0
    label: str = ""

    # Constructor-kwargs correspondence ---------------------------------- #
    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "TrainerConfig":
        """Group the trainer's constructor kwargs into a config.

        Accepts exactly the keyword arguments of
        :meth:`FederatedTrainer.__init__ <repro.core.server.FederatedTrainer>`
        (minus ``dataset``/``model``/``solver``/``callbacks``); unknown
        names raise ``TypeError`` so typos fail loudly.  The inverse of
        :meth:`trainer_kwargs`.
        """
        sections: Dict[str, Dict[str, Any]] = {
            "optimization": {},
            "cohorting": {},
            "diagnostics": {},
        }
        top: Dict[str, Any] = {}
        engine = kwargs.pop("engine", None)
        evaluation = kwargs.pop("evaluation", None)
        comms = kwargs.pop("comms", None)
        for name, value in kwargs.items():
            if name in ("seed", "label"):
                top[name] = value
            elif name in _KWARG_MAP:
                section, attr = _KWARG_MAP[name]
                sections[section][attr] = value
            else:
                raise TypeError(f"unknown trainer option {name!r}")
        return cls(
            optimization=OptimizationConfig(**sections["optimization"]),
            cohorting=CohortConfig(**sections["cohorting"]),
            evaluation=EvalConfig.resolve(evaluation),
            engine=EngineConfig.resolve(engine),
            comms=CommsConfig.resolve(comms),
            diagnostics=DiagnosticsConfig(**sections["diagnostics"]),
            **top,
        )

    def trainer_kwargs(self) -> Dict[str, Any]:
        """This config as the trainer's constructor kwargs.

        What :meth:`FederatedTrainer.from_config
        <repro.core.server.FederatedTrainer.from_config>` unpacks — the
        evaluation, engine and comms sections travel as their config
        objects, everything else under its own keyword.
        """
        kwargs: Dict[str, Any] = {}
        for name, (section, attr) in _KWARG_MAP.items():
            kwargs[name] = getattr(getattr(self, section), attr)
        kwargs["evaluation"] = self.evaluation
        kwargs["engine"] = self.engine
        kwargs["comms"] = self.comms
        kwargs["seed"] = self.seed
        kwargs["label"] = self.label
        return kwargs

    # Dict round-trip ------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Nested, JSON-friendly description of this configuration.

        Every field goes through :func:`repro.spec.describe`: scalars
        verbatim, registered components (fault schedules and policies,
        systems models, sampling schemes, the adaptive-µ controller) as
        ``{"type": name, **constructor kwargs}``, anything else (live
        telemetry, an unregistered custom object) by class name only —
        which :meth:`from_dict` refuses, keeping the round-trip honest.
        The engine and comms sections are their own scalar fields.
        """
        out: Dict[str, Any] = {
            name: {
                f.name: describe(getattr(getattr(self, name), f.name))
                for f in fields(section_cls)
            }
            for name, section_cls in _DESCRIBED_SECTIONS.items()
        }
        out["engine"] = self.engine.to_dict()
        out["comms"] = self.comms.to_dict()
        out["seed"] = self.seed
        out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, spec: Dict[str, Any], **live: Any) -> "TrainerConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Every field goes through :func:`repro.spec.build`, which raises
        :class:`~repro.spec.ReplayError` naming the section and type of a
        description it cannot build.  ``live`` are the process-local
        objects some components bind to — a sampling scheme needs the
        rebuilt federation as ``dataset=``.
        """
        built = {
            section: section_cls(**{
                name: build(value, f"{section}.{name}", **live)
                for name, value in spec.get(section, {}).items()
            })
            for section, section_cls in _DESCRIBED_SECTIONS.items()
        }
        return cls(
            seed=spec.get("seed", 0),
            label=spec.get("label", ""),
            engine=EngineConfig.from_dict(spec.get("engine", {})),
            # Pre-comms manifests have no comms section: compression off.
            comms=CommsConfig.from_dict(spec.get("comms", {})),
            **built,
        )

    # Ergonomics ----------------------------------------------------------- #
    def replace(self, **kwargs: Any) -> "TrainerConfig":
        """A copy with trainer options replaced (config is frozen).

        Accepts the same names as :meth:`from_kwargs`:
        ``config.replace(mu=1.0, engine="async:window=2",
        evaluation=EvalConfig(every=5))``.
        """
        return self.from_kwargs(**{**self.trainer_kwargs(), **kwargs})
