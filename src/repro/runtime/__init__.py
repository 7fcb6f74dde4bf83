"""Round execution engine: pluggable serial/parallel/cohort executors.

The server loop delegates each round's batch of independent local solves —
and federation-level evaluation — to a :class:`RoundExecutor`:

* :class:`SerialExecutor` — in-process sequential execution (default;
  the historical trainer behavior).
* :class:`ParallelExecutor` — persistent multiprocess workers, each
  holding its own model replica and data shard.
* :class:`CohortExecutor` — in-process *stacked* execution: all selected
  clients' proximal SGD epochs advance simultaneously through batched
  ``(K, d)`` NumPy kernels (the local-solve hot path's fast path).
* :class:`AsyncExecutor` — event-driven bounded-staleness engine: clients
  check in continuously on a simulated clock, updates aggregate with
  staleness-discounted weights (see :mod:`repro.runtime.async_engine`).

All produce bit-comparable training histories for the same configuration
(the async engine's ``window=0`` synchronized mode is bit-identical to
serial; its stale modes are deterministic but intentionally different);
see :mod:`repro.runtime.executor` for the determinism contract,
:mod:`repro.runtime.cohort` for the stacked local-solve fast path, and
:mod:`repro.runtime.evaluation` for the vectorized evaluation fast paths.

All three executors emit the same telemetry event schema
(:mod:`repro.telemetry`): the trainer's round/phase spans are
executor-agnostic, per-client solve timings ride on
:class:`~repro.core.client.ClientUpdate` payloads (so parallel workers'
spans survive the process boundary), and the cohort executor adds stacked
kernel phase-split spans.
"""

from .async_engine import ASYNC_GRAMMAR, AsyncExecutor
from .cohort import CohortExecutor, solve_cohort
from .evaluation import (
    EVAL_MODES,
    STACKED_EVAL_BLOCK,
    FederationEvaluator,
    no_test_samples_error,
    resolve_eval_mode,
)
from .executor import LocalTask, RoundExecutor, SerialExecutor, task_rng
from .parallel import ParallelExecutor
from .sampled import EvalEstimate, SampledEvaluator, StratifiedClientSampler

#: The executor spec grammar: mode name -> accepted spec strings.  A spec
#: is ``mode`` or ``mode:argument``; ``parallel`` takes a worker count and
#: ``async`` a comma-separated ``key=value`` list.  ``make_executor`` and
#: the trainer's ``engine=`` option accept exactly these strings, and
#: :meth:`repro.core.config.EngineConfig.spec` emits them; the async keys
#: are :data:`~repro.runtime.async_engine.ASYNC_GRAMMAR`.
EXECUTOR_MODES = {
    "serial": 'spec "serial" — in-process sequential execution (default)',
    "parallel": (
        'specs "parallel", "parallel:N" (N worker processes), or '
        '"parallel:auto" (match the host core count) — persistent '
        "multiprocess workers"
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
    if mode == "serial":
        return SerialExecutor(**kwargs)
    if mode == "parallel":
        return ParallelExecutor(**kwargs)
    if mode == "async":
        return AsyncExecutor(**kwargs)
    return CohortExecutor(**kwargs)


__all__ = [
    "RoundExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "CohortExecutor",
    "AsyncExecutor",
    "solve_cohort",
    "make_executor",
    "parse_executor_spec",
    "ASYNC_GRAMMAR",
    "EXECUTOR_MODES",
    "LocalTask",
    "task_rng",
    "FederationEvaluator",
    "resolve_eval_mode",
    "no_test_samples_error",
    "EVAL_MODES",
    "STACKED_EVAL_BLOCK",
    "SampledEvaluator",
    "StratifiedClientSampler",
    "EvalEstimate",
]
