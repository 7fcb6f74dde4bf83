"""Round execution engine: one scheduler over serial/parallel/cohort backends.

The server loop delegates each round's batch of independent local solves —
and federation-level evaluation — to a :class:`RoundExecutor`: the one
round scheduler (:mod:`repro.runtime.executor`) over a solve backend:

* :class:`SerialExecutor` — in-process sequential solves (default).
* :class:`ParallelExecutor` — persistent multiprocess workers, each
  holding its own model replica and data shard; they compute census
  values too.
* :class:`CohortExecutor` — in-process *stacked* solves: all due clients'
  proximal SGD epochs advance simultaneously through batched ``(K, d)``
  NumPy kernels.

``serial``, ``parallel`` and ``cohort`` run the scheduler at window 0 with
synchronized arrivals and no capacity — a barrier.  :class:`AsyncExecutor`
is the in-process backend with the scheduler's fields set from an
``async:`` spec (:mod:`repro.runtime.async_engine`); at window 0 with
synchronized arrivals it is the serial engine bit for bit.  See
:mod:`repro.runtime.executor` for the determinism contract and the
telemetry every engine writes, :mod:`repro.runtime.cohort` for the
stacked local-solve fast path, and :mod:`repro.runtime.evaluation` for the
vectorized evaluation fast paths, whose census every engine cuts across
its lanes by one rule (threads in process).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Dict

from .. import _lazy
from ..spec import SpecGrammar

if TYPE_CHECKING:
    from .executor import RoundExecutor

#: Accepted staleness-discount families.
DISCOUNTS = ("poly", "const")

#: The ``async:key=value,...`` grammar: spec key -> (:class:`AsyncExecutor`
#: argument and manifest ``engine`` field, value parser, default), in
#: canonical emission order.  The one table behind both directions:
#: :func:`parse_executor_spec` reads specs with it;
#: :meth:`AsyncExecutor.spec` and :func:`engine_spec` render them.  Its
#: defaults are the barrier engines' scheduler fields
#: (:class:`~repro.runtime.executor.RoundExecutor`).
ASYNC_GRAMMAR = SpecGrammar(
    prefix="async",
    keys=(
        ("window", "window", int, 0),
        ("discount", "discount", str, "poly"),
        ("power", "discount_power", float, 1.0),
        ("factor", "discount_factor", float, 0.5),
        ("capacity", "capacity", int, 0),
        ("arrivals", "arrivals", str, "synchronized"),
        ("latency", "latency", float, 1.0),
        ("jitter", "jitter", float, 0.5),
        ("seed", "clock_seed", int, None),
    ),
    where="executor spec",
    example="async:window=2,discount=poly",
)

#: The executor spec grammar: mode name -> accepted spec strings.  A spec
#: is ``mode`` or ``mode:argument``; ``parallel`` takes a worker count and
#: ``async`` a comma-separated ``key=value`` list.  ``make_executor`` and
#: the trainer's ``engine=`` option accept exactly these strings, and
#: :func:`engine_spec` emits them; the async keys are :data:`ASYNC_GRAMMAR`.
EXECUTOR_MODES = {
    "serial": 'spec "serial" — in-process sequential execution (default)',
    "parallel": (
        'specs "parallel", "parallel:N" (N lanes: the server and N-1 '
        'worker processes), or "parallel:auto" (one lane per usable '
        "core) — persistent multiprocess workers"
    ),
    "cohort": (
        'spec "cohort" — stacked (K, d) NumPy kernels advancing all '
        "selected clients simultaneously"
    ),
    "async": (
        'specs "async" or "async:key=value,..." — event-driven '
        "bounded-staleness engine; keys: window (max model-version lag), "
        "discount (poly|const), power, factor, capacity (in-flight queue "
        "bound), arrivals (synchronized|seeded|systems), latency, jitter, "
        'seed — e.g. "async:window=2,discount=poly,arrivals=seeded"'
    ),
}

_SPEC_EXAMPLES = (
    '"serial", "parallel:4", "parallel:auto", "cohort", '
    '"async:window=2,discount=poly"'
)


def parse_executor_spec(spec: str):
    """Parse an executor spec string into ``(mode, kwargs)``.

    The single place executor arguments are parsed: ``"parallel:4"`` →
    ``("parallel", {"n_workers": 4})``, ``"parallel:auto"`` →
    ``("parallel", {"n_workers": "auto"})``, and
    ``"async:window=2,discount=poly"`` → ``("async", {"window": 2,
    "discount": "poly"})`` with keys mapped to
    :class:`~repro.runtime.async_engine.AsyncExecutor` constructor names.
    ``serial``/``cohort`` take no argument.  Every rejection is a labeled
    ``ValueError`` naming the valid modes and example specs.
    """
    if not isinstance(spec, str):
        raise TypeError(f"executor spec must be a string, got {type(spec).__name__}")
    mode, sep, argument = spec.partition(":")
    if mode not in EXECUTOR_MODES:
        raise ValueError(
            f"unknown executor mode {mode!r}; valid modes are "
            f"{tuple(EXECUTOR_MODES)} — example specs: {_SPEC_EXAMPLES}"
        )
    if not sep:
        return mode, {}
    if mode == "async":
        return mode, ASYNC_GRAMMAR.parse(spec, argument)
    if mode != "parallel":
        raise ValueError(
            f"executor mode {mode!r} takes no argument (got {spec!r}); "
            'only "parallel:N" / "parallel:auto" and "async:key=value,..." '
            "are parameterized — example specs: " + _SPEC_EXAMPLES
        )
    if argument == "auto":
        return mode, {"n_workers": "auto"}
    try:
        n_workers = int(argument)
    except ValueError:
        raise ValueError(
            f"bad worker count {argument!r} in executor spec {spec!r}; "
            'expected "parallel:N" with integer N, or "parallel:auto"'
        ) from None
    if n_workers < 1:
        raise ValueError(f"worker count must be at least 1, got {n_workers}")
    return mode, {"n_workers": n_workers}


def engine_section(spec: str) -> Dict[str, Any]:
    """The run manifest's ``engine`` section for an executor spec string.

    ``mode``, ``workers`` (the parallel worker count, else ``None``), then
    every :data:`ASYNC_GRAMMAR` field at its value or default, in the
    grammar's order; :func:`engine_spec` is the inverse.
    """
    mode, kwargs = parse_executor_spec(spec)
    return {
        "mode": mode,
        "workers": kwargs.get("n_workers"),
        **{name: kwargs.get(name, default) for _, name, _, default in ASYNC_GRAMMAR.keys},
    }


def engine_spec(section: Dict[str, Any]) -> str:
    """The executor spec string an ``engine`` section describes.

    A key the section lacks takes its default; the async fields render
    through :data:`ASYNC_GRAMMAR`, which states only those that differ
    from their defaults.
    """
    mode = section.get("mode", "serial")
    if mode == "async":
        return ASYNC_GRAMMAR.render(SimpleNamespace(**{
            name: section.get(name, default) for _, name, _, default in ASYNC_GRAMMAR.keys
        }))
    workers = section.get("workers")
    if mode == "parallel" and workers is not None:
        return f"parallel:{workers}"
    return mode


def make_executor(spec: str, **kwargs) -> RoundExecutor:
    """Build a round executor from a spec string (see :data:`EXECUTOR_MODES`).

    Extra ``kwargs`` are forwarded to the executor constructor (e.g.
    ``start_method`` for ``"parallel"``); a worker count may come from the
    spec *or* ``n_workers=``, not both.  The trainer accepts these spec
    strings directly in its ``engine`` argument.
    """
    mode, spec_kwargs = parse_executor_spec(spec)
    overlap = set(spec_kwargs) & set(kwargs)
    if overlap:
        raise ValueError(
            f"executor spec {spec!r} already sets {sorted(overlap)}; "
            "pass the worker count in the spec or as a keyword, not both"
        )
    kwargs = {**spec_kwargs, **kwargs}
    # Only the chosen engine's module is imported.
    if mode == "serial":
        from .executor import SerialExecutor as executor
    elif mode == "parallel":
        from .parallel import ParallelExecutor as executor
    elif mode == "async":
        from .async_engine import AsyncExecutor as executor
    else:
        from .cohort import CohortExecutor as executor
    return executor(**kwargs)


__all__ = [
    "make_executor",
    "parse_executor_spec",
    "engine_section",
    "engine_spec",
    "ASYNC_GRAMMAR",
    "EXECUTOR_MODES",
]

_lazy.attach(globals(), {
    ".executor": ("RoundExecutor", "SerialExecutor", "LocalTask", "task_rng"),
    ".parallel": ("ParallelExecutor",),
    ".cohort": ("CohortExecutor", "solve_cohort"),
    ".async_engine": ("AsyncExecutor",),
    ".evaluation": (
        "FederationEvaluator",
        "resolve_eval_mode",
        "no_test_samples_error",
        "EVAL_MODES",
        "STACKED_EVAL_BLOCK",
    ),
    ".sampled": ("SampledEvaluator", "StratifiedClientSampler", "EvalEstimate"),
})
