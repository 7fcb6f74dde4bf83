"""Describing a run's components and building them back: one registry.

A run ledger's manifest names every component of the run — dataset
builder, model, solver, sampling scheme, systems model, fault schedule and
policy, adaptive-µ controller, trainer class — as a JSON dict
``{tag: name, **constructor kwargs}``.  This module is the one place that
format is written and read:

* :func:`register` enters a class or a builder function in the one
  name → constructor table; built-in and user components register the
  same way (``@register`` above the definition).  Built-in names are also
  listed by module (:data:`_MODULES`), so that :func:`build` and
  :func:`registered` import a component's module when they first need it.
* :func:`describe` turns a live object into its dict.  A registered class
  stores every constructor argument under the argument's own name, so its
  description is read off the instance; a registered *function* (the
  dataset builders) has the arguments of the call captured on
  ``result.recipe``.
* :func:`build` is the inverse, raising :class:`ReplayError` for anything
  it cannot build.

``live`` parameters are never described because they are objects of the
running process — the federation a sampling scheme draws from, a builder's
caller-owned ``rng``.  :func:`build` takes them as keyword arguments; a
builder called with one set gets no recipe (its output is not a function
of the described scalars).

The second half is the ``prefix:key=value,...`` spec-string grammar
(:class:`SpecGrammar`) behind both the ``async:`` engine specs and the
``comms:`` codec specs: one table per grammar, one parser, one renderer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "ReplayError",
    "SpecGrammar",
    "TAGS",
    "boolean",
    "build",
    "describe",
    "register",
    "registered",
]

#: The keys that carry a component's registered name.  Which one a spec
#: uses is part of the manifest format: classes are tagged ``type``,
#: dataset builders ``builder``, trainer classes ``trainer``.
TAGS = ("type", "builder", "trainer")

_VARIADIC = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)


class ReplayError(RuntimeError):
    """A description that cannot be built back, and why.

    Raised before any re-execution: unknown or unregistered component
    names, constructor arguments a constructor rejects, manifests without
    the sections replay needs.  Divergence between a recorded and a
    replayed history is not an error — it is the finding, reported by
    :class:`repro.telemetry.replay.ReplayReport`.
    """


@dataclass(frozen=True)
class _Entry:
    target: Callable[..., Any]
    tag: str
    params: Tuple[str, ...]  #: the constructor parameters a description holds
    accepts: Optional[frozenset]  #: parameter names taken; ``None`` = any keyword


_REGISTRY: Dict[str, _Entry] = {}

#: Where every built-in component registers: module → the names its
#: ``@register`` lines enter.  A run imports only the modules of the
#: components it builds; a user's own component registers when its module
#: runs, as before.
_MODULES = {
    "repro.core.adaptive_mu": ("AdaptiveMuController",),
    "repro.core.feddane": ("FedDaneTrainer",),
    "repro.core.sampling": (
        "UniformSamplingWeightedAverage",
        "WeightedSamplingSimpleAverage",
    ),
    "repro.core.server": ("FederatedTrainer",),
    "repro.datasets.images": (
        "make_prototype_image_dataset",
        "make_mnist_like",
        "make_femnist_like",
    ),
    "repro.datasets.store": ("make_synthetic_ondemand",),
    "repro.datasets.synthetic": ("make_synthetic", "make_synthetic_iid"),
    "repro.datasets.text": ("make_shakespeare_like", "make_sent140_like"),
    "repro.faults.models": (
        "NoFaults",
        "ChaosFaults",
        "CrashFaults",
        "DropoutFaults",
        "CorruptionFaults",
        "StaleFaults",
        "ComposeFaults",
    ),
    "repro.faults.policy": ("FaultPolicy",),
    "repro.models.charlstm": ("CharLSTM",),
    "repro.models.logistic": ("MultinomialLogisticRegression",),
    "repro.models.mlp": ("MLPClassifier",),
    "repro.models.sentlstm": ("SentimentLSTM",),
    "repro.optim.adam": ("AdamSolver",),
    "repro.optim.sgd": ("SGDSolver", "MomentumSGDSolver", "GDSolver"),
    "repro.systems.clock": ("ClockDrivenSystems",),
    "repro.systems.profiles": ("DeviceProfile",),
    "repro.systems.stragglers": (
        "NoHeterogeneity",
        "FractionStragglers",
        "PowerLawStragglers",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}


def register(target=None, *, tag: str = "type", live: Tuple[str, ...] = ()):
    """Enter a class or builder function in the registry (a decorator).

    ``tag`` is the key its name travels under (see :data:`TAGS`); ``live``
    the constructor parameters supplied at :func:`build` time instead of
    being described.  Variadic parameters are never described — a subclass
    that forwards ``**kwargs`` describes only what it adds.  Returns the
    class unchanged, or the function wrapped so that its result carries
    the call's arguments as ``result.recipe``.
    """
    if target is None:
        return functools.partial(register, tag=tag, live=live)
    signature = inspect.signature(target)
    parameters = signature.parameters
    keyword_bag = next(
        (n for n, p in parameters.items() if p.kind is inspect.Parameter.VAR_KEYWORD),
        None,
    )
    if not inspect.isclass(target):
        target = _capturing(target, signature, keyword_bag, tag, live)
    _REGISTRY[target.__name__] = _Entry(
        target,
        tag,
        tuple(
            name for name, p in parameters.items()
            if p.kind not in _VARIADIC and name not in live
        ),
        None if keyword_bag else frozenset(parameters),
    )
    return target


def _capturing(fn, signature, keyword_bag, tag, live):
    """``fn`` with its bound arguments recorded on what it returns."""

    @functools.wraps(fn)
    def builder(*args, **kwargs):
        result = fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        given = dict(bound.arguments)
        if keyword_bag is not None:
            given.update(given.pop(keyword_bag))
        caller_owned = [name for name in live if given.pop(name, None) is not None]
        result.recipe = None if caller_owned else {
            tag: fn.__name__, **{k: describe(v) for k, v in given.items()}
        }
        return result

    return builder


def _entry(name: str) -> Optional[_Entry]:
    """The registry entry for ``name``, importing its built-in module first."""
    if name not in _REGISTRY and name in _HOME:
        importlib.import_module(_HOME[name])
    return _REGISTRY.get(name)


def registered(tag: Optional[str] = None) -> Dict[str, Callable[..., Any]]:
    """Name → constructor for every registered component (of one tag).

    Imports every built-in component's module.
    """
    for module in _MODULES:
        importlib.import_module(module)
    return {
        name: entry.target
        for name, entry in _REGISTRY.items()
        if tag is None or entry.tag == tag
    }


def describe(obj: Any) -> Any:
    """The JSON-friendly description of ``obj``; :func:`build` inverts it.

    Scalars pass through, sequences describe element-wise, a
    function-built object answers with its captured ``recipe`` (``None``
    when the builder was handed caller-owned inputs), an instance of a
    registered class with ``{tag: name, **constructor kwargs}`` read off
    its attributes.  Anything else is *identified* — ``{"type": name}`` —
    which a manifest can show but :func:`build` refuses.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [describe(item) for item in obj]
    if hasattr(obj, "recipe"):
        return obj.recipe
    name = type(obj).__name__
    entry = _REGISTRY.get(name)
    if entry is None or entry.target is not type(obj):
        return {"type": name}
    return {
        entry.tag: name,
        **{param: describe(getattr(obj, param)) for param in entry.params},
    }


def build(spec: Any, what: str = "component", **live: Any) -> Any:
    """Build back what :func:`describe` described.

    ``what`` names the manifest section in error messages
    (``"cohorting.systems"``); ``live`` are the process-local objects
    offered to every constructor that names them.  Raises
    :class:`ReplayError` naming ``what`` and the component for malformed
    specs, unregistered names and rejected constructor arguments.
    """
    if spec is None or isinstance(spec, (bool, int, float, str)):
        return spec
    if isinstance(spec, list):
        return [build(item, what, **live) for item in spec]
    tag = next((t for t in TAGS if t in spec), None) if isinstance(spec, dict) else None
    if tag is None:
        raise ReplayError(f"malformed {what} spec: {spec!r}")
    name = spec[tag]
    entry = _entry(name)
    if entry is None or entry.tag != tag:
        raise ReplayError(
            f"unknown {what} {tag} {name!r}; registered: {sorted(registered(tag))} "
            "(repro.spec.register makes a custom component replayable)"
        )
    kwargs = {
        key: build(value, f"{what}.{key}", **live)
        for key, value in spec.items()
        if key != tag
    }
    for key, value in live.items():
        if entry.accepts is None or key in entry.accepts:
            kwargs.setdefault(key, value)  # what the spec describes wins
    try:
        return entry.target(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ReplayError(f"{what} {tag} {name!r} rejected: {exc}") from exc


# --------------------------------------------------------------------- #
# The ``prefix:key=value,...`` spec-string grammar
# --------------------------------------------------------------------- #
def boolean(value: str) -> bool:
    """Parse a spec-string boolean (``true/false``, ``1/0``, ``yes/no``, ``on/off``)."""
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


@dataclass(frozen=True)
class SpecGrammar:
    """One ``key=value,...`` grammar: a table read in both directions.

    ``keys`` lists ``(key, field, parse, default)`` in canonical emission
    order: :meth:`parse` maps each ``key=value`` item to ``field:
    parse(value)``, and :meth:`render` emits ``key=value`` for every field
    of an object that differs from ``default`` — lossless inverses, which
    is what lets a manifest carry an engine or a codec as scalars.
    ``where`` is how errors refer to the string (``"executor spec"``),
    ``example`` a valid spec for them to show, and ``bare`` the key a
    leading token without ``=`` sets (``"comms:qsgd"``), if any.
    """

    prefix: str
    keys: Tuple[Tuple[str, str, Callable[[str], Any], Any], ...]
    where: str
    example: str
    bare: Optional[str] = None

    def parse(self, spec: str, body: str) -> Dict[str, Any]:
        """``body`` (``spec`` minus its prefix) as ``{field: value}``.

        Blank items are skipped; every rejection is a labeled
        ``ValueError`` quoting ``spec``.
        """
        table = {key: (name, parse) for key, name, parse, _ in self.keys}
        kwargs: Dict[str, Any] = {}
        items = [item for item in body.split(",") if item.strip()]
        for position, item in enumerate(items):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep and position == 0 and self.bare is not None:
                key, value = self.bare, key
            elif not sep or not key:
                raise ValueError(
                    f"malformed {self.prefix} option {item!r} in {self.where} "
                    f"{spec!r}; expected comma-separated key=value pairs, "
                    f'e.g. "{self.example}"'
                )
            if key not in table:
                raise ValueError(
                    f"unknown {self.prefix} option {key!r} in {self.where} "
                    f"{spec!r}; valid keys: {tuple(table)}"
                )
            name, parse = table[key]
            if name in kwargs:
                raise ValueError(
                    f"duplicate {self.prefix} option {key!r} in {self.where} "
                    f"{spec!r}"
                )
            try:
                kwargs[name] = parse(value.strip())
            except ValueError:
                raise ValueError(
                    f"bad value {value.strip()!r} for {self.prefix} option "
                    f"{key!r} in {self.where} {spec!r}; expected "
                    f"{parse.__name__}"
                ) from None
        return kwargs

    def render(self, source: Any) -> str:
        """The canonical spec string for ``source``'s fields."""
        parts = []
        for key, name, _parse, default in self.keys:
            value = getattr(source, name)
            if value != default:
                text = str(value).lower() if isinstance(value, bool) else str(value)
                parts.append(f"{key}={text}")
        return f"{self.prefix}:" + ",".join(parts) if parts else self.prefix
