"""Bit parity of the one rate-driven fault schedule with the code it replaced.

The four single-kind schedules (``CrashFaults``, ``DropoutFaults``,
``CorruptionFaults``, ``StaleFaults``) used to share a ``_RateFaults``
base and each carry their own ``_decision``, which ``ChaosFaults``
re-implemented; what a crash or a corruption does to a solve lived in
``repro.runtime.executor``; and a ``SystemsClock`` wrapper re-derived
``ClockDrivenSystems``' cost model from its private helpers.  Now
``ChaosFaults`` is the one schedule (the others pin ``kinds``), a drawn
:class:`FaultDecision` applies its own effect, and ``ClockDrivenSystems``
is its own clock.  The replaced code is frozen below as the oracle, and
the library must equal it exactly:

* every draw over a grid of seed, rate, round, client, attempt and every
  kind parameter;
* every executed crash budget (value and type) and every damaged iterate
  (``array_equal``, NaN positions included);
* every clock ``timing`` and ``bottleneck``.

The single-kind schedules make the draws their dedicated bodies made
because picking the one kind, ``Generator.integers(1)``, consumes no
entropy; that NumPy behaviour has its own test here, so a release that
changes it fails with its cause named.
"""

import abc
import functools
import itertools
import json
from typing import Optional, Sequence

import numpy as np
import pytest

from repro.core.client import ClientUpdate
from repro.faults import (
    ChaosFaults,
    ComposeFaults,
    CorruptionFaults,
    CrashFaults,
    DropoutFaults,
    FaultDecision,
    NoFaults,
    StaleFaults,
)
from repro.runtime.executor import LocalTask, apply_update_fault, task_effective_epochs
from repro.spec import describe
from repro.systems import ClockDrivenSystems, DeviceTiming, resolve_clock, sample_fleet
from repro.systems.stragglers import entropy_rng

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

FAULT_SALT = 0xFA17
FAULT_KINDS = ("crash", "dropout", "corrupt", "stale")
CORRUPT_MODES = ("nan", "noise")
_CORRUPTION_SALT = 0xC0FF


# --------------------------------------------------------------------- #
# The oracle: the replaced schedules, effects and clock, frozen
# --------------------------------------------------------------------- #
class _RateFaults(abc.ABC):
    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.rate = float(rate)
        self.seed = int(seed)

    def draw(self, round_idx, client_id, attempt=0) -> Optional[FaultDecision]:
        rng = entropy_rng(self.seed, FAULT_SALT, round_idx, client_id, attempt)
        if rng.uniform() >= self.rate:
            return None
        return self._decision(rng)

    @abc.abstractmethod
    def _decision(self, rng: np.random.Generator) -> FaultDecision:
        """The fault a strike inflicts."""


class OldCrashFaults(_RateFaults):
    def __init__(self, rate, seed=0, min_fraction=0.1, max_fraction=0.9):
        super().__init__(rate, seed)
        if not 0.0 < min_fraction <= max_fraction <= 1.0:
            raise ValueError("need 0 < min_fraction <= max_fraction <= 1")
        self.min_fraction = float(min_fraction)
        self.max_fraction = float(max_fraction)

    def _decision(self, rng):
        return FaultDecision(
            kind="crash",
            fraction=float(rng.uniform(self.min_fraction, self.max_fraction)),
        )


class OldDropoutFaults(_RateFaults):
    def _decision(self, rng):
        return FaultDecision(kind="dropout")


class OldCorruptionFaults(_RateFaults):
    def __init__(self, rate, seed=0, mode="nan", scale=1.0):
        super().__init__(rate, seed)
        if mode not in CORRUPT_MODES:
            raise ValueError(f"mode must be one of {CORRUPT_MODES}")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.mode = mode
        self.scale = float(scale)

    def _decision(self, rng):
        return FaultDecision(kind="corrupt", mode=self.mode, scale=self.scale)


class OldStaleFaults(_RateFaults):
    def __init__(self, rate, seed=0, max_delay=3):
        super().__init__(rate, seed)
        if max_delay < 1:
            raise ValueError("max_delay must be at least 1")
        self.max_delay = int(max_delay)

    def _decision(self, rng):
        return FaultDecision(
            kind="stale", delay=int(rng.integers(1, self.max_delay + 1))
        )


class OldChaosFaults(_RateFaults):
    def __init__(
        self,
        rate,
        seed=0,
        kinds: Sequence[str] = FAULT_KINDS,
        min_fraction=0.1,
        max_fraction=0.9,
        mode="nan",
        scale=1.0,
        max_delay=3,
    ):
        super().__init__(rate, seed)
        kinds = tuple(kinds)
        if not kinds or any(k not in FAULT_KINDS for k in kinds):
            raise ValueError(f"kinds must be a non-empty subset of {FAULT_KINDS}")
        if not 0.0 < min_fraction <= max_fraction <= 1.0:
            raise ValueError("need 0 < min_fraction <= max_fraction <= 1")
        if mode not in CORRUPT_MODES:
            raise ValueError(f"mode must be one of {CORRUPT_MODES}")
        if max_delay < 1:
            raise ValueError("max_delay must be at least 1")
        self.kinds = kinds
        self.min_fraction = float(min_fraction)
        self.max_fraction = float(max_fraction)
        self.mode = mode
        self.scale = float(scale)
        self.max_delay = int(max_delay)

    def _decision(self, rng):
        kind = self.kinds[int(rng.integers(len(self.kinds)))]
        if kind == "crash":
            return FaultDecision(
                kind="crash",
                fraction=float(rng.uniform(self.min_fraction, self.max_fraction)),
            )
        if kind == "dropout":
            return FaultDecision(kind="dropout")
        if kind == "corrupt":
            return FaultDecision(kind="corrupt", mode=self.mode, scale=self.scale)
        return FaultDecision(
            kind="stale", delay=int(rng.integers(1, self.max_delay + 1))
        )


def old_task_effective_epochs(task):
    if task.fault is not None and task.fault.kind == "crash":
        return task.epochs * task.fault.fraction
    return task.epochs


def old_apply_update_fault(update):
    task = update.task
    fault = task.fault
    if fault is not None and fault.kind == "corrupt":
        rng = entropy_rng(*task.rng_entropy, _CORRUPTION_SALT)
        w = update.w
        if fault.mode == "nan":
            k = max(1, w.size // 10)
            w[rng.choice(w.size, size=k, replace=False)] = np.nan
        else:
            rms = float(np.sqrt(np.mean(w * w)))
            w += fault.scale * (rms or 1.0) * rng.standard_normal(w.size)


class OldSystemsClock:
    """The wrapper clock, with the two model helpers it read inlined."""

    def __init__(self, systems):
        self.systems = systems
        self.period = float(systems.deadline)

    def _jitter(self, round_idx, device_id):
        systems = self.systems
        if systems.jitter_sigma <= 0:
            return 1.0
        rng = entropy_rng(systems.seed, round_idx, device_id)
        return float(rng.lognormal(0.0, systems.jitter_sigma))

    def _communication_cycles(self, profile):
        seconds_per_cycle = 1.0
        transfer_seconds = 2.0 * self.systems.model_megabits / profile.bandwidth_mbps
        return transfer_seconds / seconds_per_cycle

    def timing(self, round_idx, device_id, epochs):
        systems = self.systems
        profile = {p.device_id: p for p in systems.profiles}[device_id]
        comm = self._communication_cycles(profile)
        speed = profile.effective_speed() * self._jitter(round_idx, device_id)
        compute = epochs / speed if speed > 0 else systems.deadline
        return DeviceTiming(comm / 2.0, compute, comm / 2.0)

    def bottleneck(self, timing):
        comm = timing.download + timing.upload
        return "network" if comm > 0.5 * self.period else "compute"


# --------------------------------------------------------------------- #
# The grid
# --------------------------------------------------------------------- #
SEEDS = (0, 11)
RATES = (0.0, 0.35, 1.0)
CELLS = list(itertools.product(range(5), range(7), range(3)))  # round, client, attempt

#: (library class, oracle class, kind parameters) — every parameter of
#: every kind at its default and away from it.
SCHEDULES = [
    (CrashFaults, OldCrashFaults, {}),
    (CrashFaults, OldCrashFaults, {"min_fraction": 0.25, "max_fraction": 0.5}),
    (CrashFaults, OldCrashFaults, {"min_fraction": 1.0, "max_fraction": 1.0}),
    (DropoutFaults, OldDropoutFaults, {}),
    (CorruptionFaults, OldCorruptionFaults, {}),
    (CorruptionFaults, OldCorruptionFaults, {"mode": "noise", "scale": 3.5}),
    (StaleFaults, OldStaleFaults, {}),
    (StaleFaults, OldStaleFaults, {"max_delay": 1}),
    (StaleFaults, OldStaleFaults, {"max_delay": 6}),
    (ChaosFaults, OldChaosFaults, {}),
    (ChaosFaults, OldChaosFaults, {"kinds": ("stale", "crash")}),
    (ChaosFaults, OldChaosFaults, {"kinds": ("corrupt",), "mode": "noise"}),
    (ChaosFaults, OldChaosFaults, {"kinds": ("dropout",)}),
    (
        ChaosFaults,
        OldChaosFaults,
        {
            "kinds": ("corrupt", "stale", "dropout", "crash"),
            "min_fraction": 0.05,
            "max_fraction": 0.3,
            "mode": "noise",
            "scale": 0.5,
            "max_delay": 5,
        },
    ),
]


def _pairs():
    for (new_cls, old_cls, params), seed, rate in itertools.product(
        SCHEDULES, SEEDS, RATES
    ):
        yield new_cls(rate, seed, **params), old_cls(rate, seed, **params)


def _schedule_id(entry):
    new_cls, _, params = entry
    return new_cls.__name__ + "".join(f"-{k}={v}" for k, v in params.items())


def test_picking_from_one_kind_draws_nothing():
    """``integers(1)`` returns 0 and leaves the stream where it was."""
    for seed in range(20):
        drawn, untouched = entropy_rng(seed, 1), entropy_rng(seed, 1)
        assert drawn.integers(1) == 0
        assert drawn.uniform() == untouched.uniform()
        assert drawn.integers(1, 4) == untouched.integers(1, 4)


@pytest.mark.parametrize("entry", SCHEDULES, ids=[_schedule_id(e) for e in SCHEDULES])
def test_draws_equal_the_replaced_schedules(entry):
    new_cls, old_cls, params = entry
    for seed, rate in itertools.product(SEEDS, RATES):
        new, old = new_cls(rate, seed, **params), old_cls(rate, seed, **params)
        for round_idx, client_id, attempt in CELLS:
            assert new.draw(round_idx, client_id, attempt) == old.draw(
                round_idx, client_id, attempt
            ), (seed, rate, round_idx, client_id, attempt)


def test_the_grid_draws_every_kind():
    kinds = {
        d.kind
        for new, _ in _pairs()
        for d in (new.draw(*cell) for cell in CELLS)
        if d is not None
    }
    assert kinds == set(FAULT_KINDS)


@functools.lru_cache(maxsize=None)
def _grid_decisions():
    """Every distinct decision the grid draws, in first-drawn order."""
    seen = []
    for new, _ in _pairs():
        for cell in CELLS:
            decision = new.draw(*cell)
            if decision is not None and decision not in seen:
                seen.append(decision)
    return tuple(seen)


@pytest.mark.parametrize("epochs", [1.0, 2.5, 3, 0.02])
def test_executed_budgets_equal_the_replaced_helper(epochs):
    decisions = [*_grid_decisions(), None]
    assert any(d is not None and d.kind == "crash" for d in decisions)
    for decision in decisions:
        task = LocalTask(0, np.zeros(3), 0.1, epochs, (4, 1, 0, 0), fault=decision)
        got, want = task_effective_epochs(task), old_task_effective_epochs(task)
        assert got == want and type(got) is type(want), decision


def _update(task, w):
    return ClientUpdate(
        client_id=task.client_id, w=w, num_train=10, epochs=task.epochs,
        gradient_evaluations=1, task=task,
    )


@pytest.mark.parametrize("size", [1, 9, 10, 57])
def test_damaged_iterates_equal_the_replaced_helper(size):
    rng = np.random.default_rng(size)
    decisions = [
        *_grid_decisions(),
        None,
        FaultDecision("corrupt", mode="noise", scale=2.0),
        FaultDecision("corrupt", mode="nan"),
    ]
    damaged = 0
    for i, decision in enumerate(decisions):
        for w0 in (rng.normal(size=size), np.zeros(size)):
            entropy = (3, i, 7, 1) if i % 2 else (3, i, 7, 1, 0x4E7F, 2)
            task = LocalTask(7, np.zeros(size), 0.1, 2.0, entropy, fault=decision)
            got, want = _update(task, w0.copy()), _update(task, w0.copy())
            apply_update_fault(got)
            old_apply_update_fault(want)
            assert np.array_equal(got.w, want.w, equal_nan=True), decision
            damaged += not np.array_equal(got.w, w0)
    assert damaged > 0


@pytest.mark.parametrize("deadline", [0.5, 3.0, 10.0])
@pytest.mark.parametrize("jitter", [0.0, 0.25])
def test_clock_equals_the_replaced_wrapper(deadline, jitter):
    profiles = sample_fleet(12, np.random.default_rng(5))
    systems = ClockDrivenSystems(
        profiles, deadline=deadline, model_megabits=2.0, jitter_sigma=jitter, seed=3
    )
    oracle = OldSystemsClock(systems)
    assert resolve_clock("systems", systems) is systems
    assert systems.period == oracle.period
    bottlenecks = set()
    for round_idx, device_id, epochs in itertools.product(
        range(4), range(12), (0.02, 1.0, 7.5)
    ):
        timing = systems.timing(round_idx, device_id, epochs)
        assert timing == oracle.timing(round_idx, device_id, epochs)
        bottleneck = systems.bottleneck(timing)
        assert bottleneck == oracle.bottleneck(timing)
        bottlenecks.add(bottleneck)
    if deadline == 3.0:
        assert bottlenecks == {"network", "compute"}


#: Each schedule's manifest entry, byte for byte as ledgers hold it.
DESCRIPTIONS = [
    (NoFaults(), '{"type": "NoFaults"}'),
    (
        CrashFaults(0.4, seed=7, min_fraction=0.2, max_fraction=0.8),
        '{"type": "CrashFaults", "rate": 0.4, "seed": 7, "min_fraction": 0.2, '
        '"max_fraction": 0.8}',
    ),
    (DropoutFaults(0.1, seed=2), '{"type": "DropoutFaults", "rate": 0.1, "seed": 2}'),
    (
        CorruptionFaults(0.2, seed=1, mode="noise", scale=2.5),
        '{"type": "CorruptionFaults", "rate": 0.2, "seed": 1, "mode": "noise", '
        '"scale": 2.5}',
    ),
    (
        StaleFaults(0.3, max_delay=4),
        '{"type": "StaleFaults", "rate": 0.3, "seed": 0, "max_delay": 4}',
    ),
    (
        ChaosFaults(0.1),
        '{"type": "ChaosFaults", "rate": 0.1, "seed": 0, "kinds": ["crash", '
        '"dropout", "corrupt", "stale"], "min_fraction": 0.1, "max_fraction": 0.9, '
        '"mode": "nan", "scale": 1.0, "max_delay": 3}',
    ),
    (
        ComposeFaults([CrashFaults(1.0), StaleFaults(0.5, seed=4, max_delay=2)]),
        '{"type": "ComposeFaults", "schedules": [{"type": "CrashFaults", '
        '"rate": 1.0, "seed": 0, "min_fraction": 0.1, "max_fraction": 0.9}, '
        '{"type": "StaleFaults", "rate": 0.5, "seed": 4, "max_delay": 2}]}',
    ),
]


@pytest.mark.parametrize(
    "schedule, literal", DESCRIPTIONS, ids=[type(s).__name__ for s, _ in DESCRIPTIONS]
)
def test_descriptions_are_frozen(schedule, literal):
    assert json.dumps(describe(schedule)) == literal
